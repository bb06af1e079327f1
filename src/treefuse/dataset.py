"""Dataset files, split manifests, and the JSON artefact layer.

Notes are line-delimited records (admission_id, text); labels are
line-delimited records (admission_id, list of label names). The label
space is the sorted set of names observed in the training split. Splits
are seeded shuffles cut at rounded cumulative boundaries and written to a
manifest file so later stages agree on membership exactly.

Every JSON artefact a stage hands to a later one (schema, ensemble,
vocabulary, manifest, checkpoint metadata) is written by ``write_json``,
digested by ``json_sha256``, read by ``read_json`` and ``check``ed against
a spec that maps each key it must hold to a type: a class, a union,
``Integer``, ``FiniteNumber``, ``Id``, ``list[T]``, ``dict[str, T]`` or, for a
format version, ``Literal[v]``. Every line-delimited record file is
written by ``write_jsonl``, and ``read_jsonl`` checks each record the same
way. Each artefact states its spec once, beside its reader.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from itertools import repeat
from types import GenericAlias
from typing import Literal

import numpy as np


class DatasetError(ValueError):
    pass


_DECODER = json.JSONDecoder()
_LITERAL = type(Literal[0])


class _SpecType(type):
    def __instancecheck__(cls, value) -> bool:
        return cls.accepts(value)


class FiniteNumber(metaclass=_SpecType):
    """Spec type of a finite number (not a bool, NaN or ±Infinity)."""

    @staticmethod
    def accepts(value, _max=sys.float_info.max) -> bool:
        # bool is not a number here, and NaN fails the comparisons
        return (isinstance(value, float) or value.__class__ is int) and -_max <= value <= _max


class Integer(metaclass=_SpecType):
    """Spec type of an integer (not a bool)."""

    @staticmethod
    def accepts(value) -> bool:
        return value.__class__ is int


class Id(metaclass=_SpecType):
    """Spec type of a record id: a string or an integer (not a bool)."""

    @staticmethod
    def accepts(value) -> bool:
        return value.__class__ is str or value.__class__ is int


def _is(value, kind) -> bool:
    """``isinstance`` extended to ``list[T]``, ``dict[str, T]`` and ``Literal[...]``."""
    if kind.__class__ is _LITERAL:
        return any(value.__class__ is v.__class__ and value == v for v in kind.__args__)
    if kind.__class__ is not GenericAlias:
        return isinstance(value, kind)
    outer, item = kind.__origin__, kind.__args__[-1]
    # a dict's keys are not checked: JSON object keys are strings
    items = value.values() if isinstance(value, dict) else value
    test = _is if item.__class__ in (GenericAlias, _LITERAL) else isinstance
    return isinstance(value, outer) and all(map(test, items, repeat(item)))


def check(payload, spec: dict, where: str) -> None:
    """Raise DatasetError, naming ``where``, the key and the value, unless
    ``payload`` is an object holding each key of ``spec`` with a value of its type."""
    if not isinstance(payload, dict):
        raise DatasetError(f"{where} is a {type(payload).__name__}, not an object")
    for key, kind in spec.items():
        if key not in payload:
            raise DatasetError(f"{where} has no {key!r}")
        if kind is object:
            continue
        value = payload[key]
        # isinstance's dispatch to accepts would double a time-series record's check
        if not (kind.accepts(value) if kind.__class__ is _SpecType else _is(value, kind)):
            name = kind.__name__ if isinstance(kind, type) else (
                str(kind).replace(f"{__name__}.", "").replace("typing.", ""))
            raise DatasetError(f"{where} {key!r} must be a {name}, "
                               f"not {json.dumps(value, default=repr)[:60]}")


def write_json(payload, path) -> None:
    """The artefact file format: sorted keys, one-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def json_sha256(payload) -> str:
    """Digest of the compact sorted-key JSON form."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def read_json(path):
    """The JSON value in ``path``; a file that does not parse raises DatasetError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DatasetError(f"{path}: not a JSON file: {exc}") from None


def write_jsonl(records, path) -> None:
    """One ``json.dumps`` object per line, in iteration order."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")


def read_jsonl(path, error: type[ValueError], required: dict):
    """Yield the JSON object on each nonblank line of ``path``.

    ``required`` is the spec each record is ``check``ed against. A line
    that does not parse or fails the check raises ``error`` naming
    ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                # json.loads without its wrapper, whose whitespace scans cost
                # about as much as parsing a short record; the line is stripped
                rec, end = _DECODER.raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                check(rec, required, "record")
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: bad record: {exc}") from exc
            except DatasetError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
            yield rec


def load_notes(path) -> dict[str, str]:
    """admission_id -> document text, in file order."""
    notes: dict[str, str] = {}
    for rec in read_jsonl(path, DatasetError, {"admission_id": Id, "text": str}):
        aid = str(rec["admission_id"])
        if aid in notes:
            raise DatasetError(f"duplicate admission_id in notes: {aid}")
        notes[aid] = rec["text"]
    return notes


def save_notes(notes: dict[str, str], path) -> None:
    write_jsonl(({"admission_id": aid, "text": text} for aid, text in notes.items()), path)


def load_labels(path) -> dict[str, list[str]]:
    """admission_id -> list of gold label names."""
    labels: dict[str, list[str]] = {}
    for rec in read_jsonl(path, DatasetError,
                          {"admission_id": Id, "labels": list[str]}):
        aid = str(rec["admission_id"])
        if aid in labels:
            raise DatasetError(f"duplicate admission_id in labels: {aid}")
        labels[aid] = rec["labels"]
    return labels


def save_labels(labels: dict[str, list[str]], path) -> None:
    write_jsonl(({"admission_id": aid, "labels": list(names)}
                 for aid, names in labels.items()), path)


def label_space(labels_by_id: dict[str, list[str]], ids) -> list[str]:
    """Sorted unique label names over the given admissions."""
    names: set[str] = set()
    for aid in ids:
        names.update(labels_by_id.get(aid, []))
    return sorted(names)


def label_matrix(ids, labels_by_id, label_names) -> np.ndarray:
    """Multi-hot gold matrix, rows following ids, columns label_names.

    Names outside label_names (unseen at training) are ignored.
    """
    index = {name: j for j, name in enumerate(label_names)}
    out = np.zeros((len(ids), len(label_names)))
    for i, aid in enumerate(ids):
        for name in labels_by_id.get(aid, []):
            j = index.get(name)
            if j is not None:
                out[i, j] = 1.0
    return out


def split_ids(ids, ratios, seed) -> dict[str, list[str]]:
    """Disjoint covering train/val/test split by seeded shuffle.

    Boundaries are the rounded cumulative ratios; every part must be
    nonempty.
    """
    ids = list(ids)
    if len(ratios) != 3:
        raise DatasetError(f"need 3 split ratios, got {len(ratios)}")
    total = float(sum(ratios))
    if abs(total - 1.0) > 1e-9:
        raise DatasetError(f"split ratios must sum to 1, got {total}")
    n = len(ids)
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [ids[i] for i in perm]
    b1 = round(ratios[0] * n)
    b2 = round((ratios[0] + ratios[1]) * n)
    parts = {
        "train": shuffled[:b1],
        "val": shuffled[b1:b2],
        "test": shuffled[b2:],
    }
    for name, members in parts.items():
        if not members:
            raise DatasetError(f"split {name!r} is empty for {n} documents")
    return parts


_SPLITS = ("train", "val", "test")


def save_manifest(parts: dict[str, list[str]], path) -> None:
    write_json(parts, path)


def load_manifest(path) -> dict[str, list[str]]:
    """The three disjoint splits of ``save_manifest``'s file."""
    parts = read_json(path)
    where = f"manifest {path}"
    check(parts, dict.fromkeys(_SPLITS, list[str]), where)
    if len(parts) != len(_SPLITS):
        raise DatasetError(f"{where} holds {sorted(parts)}, not exactly {list(_SPLITS)}")
    ids = [aid for name in _SPLITS for aid in parts[name]]
    if len(set(ids)) != len(ids):
        repeated = sorted(aid for aid, n in Counter(ids).items() if n > 1)
        raise DatasetError(f"{where} puts admissions {repeated} in more than one place")
    return parts
