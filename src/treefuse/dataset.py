"""Dataset files and split manifests.

Notes are line-delimited records (admission_id, text); labels are
line-delimited records (admission_id, list of label names). The label
space is the sorted set of names observed in the training split. Splits
are seeded shuffles cut at rounded cumulative boundaries and written to a
manifest file so later stages agree on membership exactly.
"""

from __future__ import annotations

import json
import sys
from typing import get_args, get_origin

import numpy as np


class DatasetError(ValueError):
    pass


_DECODER = json.JSONDecoder()


class _FiniteNumberType(type):
    def __instancecheck__(cls, value, _max=sys.float_info.max) -> bool:
        # bool is not a number here, and NaN fails the comparisons
        return value.__class__ in (float, int) and -_max <= value <= _max


class FiniteNumber(metaclass=_FiniteNumberType):
    """``read_jsonl`` type of a finite JSON number (not a bool, NaN or ±Infinity)."""


def read_jsonl(path, error: type[ValueError], required: dict[str, type]):
    """Yield the JSON object on each nonblank line of ``path``.

    ``required`` maps each key a record must have to the type of its value
    (``object`` takes any value, ``list[FiniteNumber | None]`` a list of
    numbers and nulls). A line that does not parse, is not an object, lacks
    a required key or holds a value of the wrong type raises ``error``
    naming ``path:line``.
    """
    # (key, type, outer type, item types): list[str] -> list, (str,)
    typed = [(key, kind, list, get_args(kind)) if get_origin(kind) is list
             else (key, kind, kind, ())
             for key, kind in required.items() if kind is not object]
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
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: bad record: {exc}") from exc
            if not isinstance(rec, dict):
                raise error(f"{path}:{lineno}: record is a {type(rec).__name__}, not an object")
            for key in required:
                if key not in rec:
                    raise error(f"{path}:{lineno}: record has no {key!r}")
            for key, kind, outer, items in typed:
                value = rec[key]
                if not isinstance(value, outer) or (
                        items and not all(isinstance(v, items) for v in value)):
                    name = (kind.__name__ if isinstance(kind, type)
                            else str(kind).replace(f"{__name__}.", ""))
                    raise error(f"{path}:{lineno}: {key!r} must be a {name}, "
                                f"not {json.dumps(value)[:60]}")
            yield rec


def load_notes(path) -> dict[str, str]:
    """admission_id -> document text, in file order."""
    notes: dict[str, str] = {}
    for rec in read_jsonl(path, DatasetError, {"admission_id": object, "text": str}):
        aid = str(rec["admission_id"])
        if aid in notes:
            raise DatasetError(f"duplicate admission_id in notes: {aid}")
        notes[aid] = rec["text"]
    return notes


def save_notes(notes: dict[str, str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for aid, text in notes.items():
            fh.write(json.dumps({"admission_id": aid, "text": text}))
            fh.write("\n")


def load_labels(path) -> dict[str, list[str]]:
    """admission_id -> list of gold label names."""
    labels: dict[str, list[str]] = {}
    for rec in read_jsonl(path, DatasetError,
                          {"admission_id": object, "labels": list[str]}):
        aid = str(rec["admission_id"])
        if aid in labels:
            raise DatasetError(f"duplicate admission_id in labels: {aid}")
        labels[aid] = rec["labels"]
    return labels


def save_labels(labels: dict[str, list[str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for aid, names in labels.items():
            fh.write(json.dumps({"admission_id": aid, "labels": list(names)}))
            fh.write("\n")


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


def save_manifest(parts: dict[str, list[str]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(parts, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        parts = json.load(fh)
    for name in ("train", "val", "test"):
        if name not in parts:
            raise DatasetError(f"manifest missing split {name!r}")
    return {name: [str(a) for a in members] for name, members in parts.items()}
