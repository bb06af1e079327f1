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


def make_ensemble(max_depth=1, min_positives=1):
    x = np.random.default_rng(0).normal(size=(40, 3))
    labels = np.stack([x[:, 0] > 0, x[:, 1] > 0.5], axis=1)
    return trees.train_ensemble(x, labels, trees.TreeTrainConfig(max_depth=max_depth,
                                                                 min_positives=min_positives))


def make_manifest():
    return dataset.split_ids([f"d{i}" for i in range(10)], (0.6, 0.2, 0.2), seed=3)


def make_checkpoint(int_type=int):
    dims = model.ModelDims(**{name: int_type(size) for name, size in
                              dict(vocab_size=6, n_labels=2, d_e=3, d_lstm=2, d_t=2, d_l=2).items()},
                           leaf_counts=tuple(map(int_type, (2, 3))))
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


def test_in_memory_round_trips(tmp_path):
    # the payload an artefact's digest is taken of, written compact, loads back
    for name in ("schema", "ensemble"):
        build, _, load, canonical, filename = ARTEFACTS[name]
        payload = canonical(build())
        path = tmp_path / filename
        path.write_text(json.dumps(payload))
        assert canonical(load(path)) == payload


def test_numpy_integer_counts_round_trip(tmp_path):
    # counts given as numpy integers are stored as ints, which JSON can hold
    ensemble = make_ensemble(max_depth=np.int64(1), min_positives=np.int32(1))
    trees.save_ensemble(ensemble, tmp_path / "ensemble.json")
    assert (trees.ensemble_to_dict(trees.load_ensemble(tmp_path / "ensemble.json"))
            == trees.ensemble_to_dict(make_ensemble()))
    save_checkpoint(make_checkpoint(np.int64), tmp_path / "ckpt.npz")
    assert (checkpoint_canonical(load_checkpoint(tmp_path / "ckpt.npz"))
            == checkpoint_canonical(make_checkpoint()))


def test_schema_file_layout(tmp_path):
    payload = read_payload("schema", saved(tmp_path, "schema"))
    assert set(payload) == {"format_version", "columns"}
    assert all(set(column) == {"kind", "source_id"} for column in payload["columns"])


def test_ensemble_file_layout(tmp_path):
    payload = read_payload("ensemble", saved(tmp_path, "ensemble"))
    assert set(payload) == {"format_version", "config", "n_features", "trees"}
    node_keys = {"leaf": {"kind", "leaf_id", "weight"},
                 "split": {"kind", "column", "threshold", "default_left", "left", "right"}}
    for tree in payload["trees"]:
        assert all(set(node) == node_keys[node["kind"]] for node in tree)


NAN, INF = float("nan"), float("inf")

# (artefact, path to the value replaced, wrong-typed value, text naming the
# artefact or file, the key named)
WRONG_TYPED = [
    ("vocabulary", ("format_version",), "1", "vocab.json", "format_version"),
    ("vocabulary", ("tokens", "alpha"), "1", "vocab.json", "tokens"),
    ("vocabulary", ("tokens", "alpha"), 1.7, "vocab.json", "tokens"),
    ("vocabulary", ("tokens", "alpha"), True, "vocab.json", "tokens"),
    ("vocabulary", ("tokens",), ["alpha"], "vocab.json", "tokens"),
    ("schema", ("format_version",), 1.0, "schema.json", "format_version"),
    ("schema", ("format_version",), 1, "schema.json", "format_version"),
    ("schema", ("columns",), {"0": "ts_max:hr"}, "schema.json", "columns"),
    ("schema", ("columns", 0, "kind"), 7, "schema.json column 0", "kind"),
    ("schema", ("columns", 0, "source_id"), 7, "schema.json column 0", "source_id"),
    ("ensemble", ("format_version",), 1, "ensemble.json", "format_version"),
    ("ensemble", ("n_features",), "3", "ensemble.json", "n_features"),
    ("ensemble", ("n_features",), 1.7, "ensemble.json", "n_features"),
    ("ensemble", ("trees",), {"0": {}}, "ensemble.json", "trees"),
    ("ensemble", ("config", "max_depth"), 1.7, "ensemble.json config", "max_depth"),
    ("ensemble", ("config", "learning_rate"), NAN, "ensemble.json config", "learning_rate"),
    ("ensemble", ("config", "l2_lambda"), INF, "ensemble.json config", "l2_lambda"),
    ("ensemble", ("trees", 0), {"nodes": []}, "ensemble.json", "trees"),
    ("ensemble", ("trees", 0, 0), "split", "ensemble.json", "trees"),
    ("ensemble", ("trees", 0, 1, "kind"), 3, "ensemble.json tree 0, node 1", "kind"),
    ("ensemble", ("trees", 0, 0, "default_left"), "false", "ensemble.json tree 0, node 0",
     "default_left"),
    ("ensemble", ("trees", 0, 0, "column"), 1.7, "ensemble.json tree 0, node 0", "column"),
    ("ensemble", ("trees", 0, 0, "threshold"), -INF, "ensemble.json tree 0, node 0",
     "threshold"),
    ("ensemble", ("trees", 0, 1, "weight"), NAN, "ensemble.json tree 0, node 1", "weight"),
    ("ensemble", ("trees", 0, 1, "leaf_id"), "0", "ensemble.json tree 0, node 1", "leaf_id"),
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


@pytest.mark.parametrize("read", [dataset.read_json] + [
    ARTEFACTS[name][2] for name in ("vocabulary", "schema", "ensemble", "manifest")],
    ids=["read_json", "vocabulary", "schema", "ensemble", "manifest"])
def test_file_nested_past_the_recursion_limit_named(tmp_path, read):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(dataset.DatasetError, match=re.escape(f"{path}: not a JSON file: ")):
        read(path)
