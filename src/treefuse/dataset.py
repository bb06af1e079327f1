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
written by ``write_jsonl``, and ``read_jsonl`` holds each of its records to a
spec of the same kind, tested a block of records at a time. Each artefact
states its spec once, beside its reader.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from itertools import islice, repeat
from operator import itemgetter
from types import GenericAlias
from typing import Literal

import numpy as np


class DatasetError(ValueError):
    pass


_DECODER = json.JSONDecoder()
_LITERAL = type(Literal[0])
# Lines ``read_jsonl`` decodes before it tests and yields their records. It
# holds one block of decoded records at a time, and the benchmark's peak RSS
# grows with the block: by 2.4 MiB on wide_tabular at 4096 lines, by 0.3 MiB
# on lift at 512, by none measurable at 256. 128 lines read more slowly.
_BLOCK_LINES = 256


class _SpecType(type):
    """A spec type tests one value with ``accepts`` and a list of
    JSON-decoded values with ``accepts_all``, which holds iff ``accepts``
    holds for each of them."""

    def __instancecheck__(cls, value) -> bool:
        return cls.accepts(value)


class FiniteNumber(metaclass=_SpecType):
    """Spec type of a finite number (not a bool, NaN or ±Infinity)."""

    @staticmethod
    def accepts(value, _max=sys.float_info.max) -> bool:
        # bool is not a number here, and NaN fails the comparisons
        return (isinstance(value, float) or value.__class__ is int) and -_max <= value <= _max

    @staticmethod
    def accepts_all(values, _max=sys.float_info.max) -> bool:
        # min and max compare ints and floats exactly, so 10**400 is out of
        # range; they may step over a NaN, but once every value is in range
        # isnan can take the ints
        return ({float, int}.issuperset(map(type, values))
                and -_max <= min(values, default=0) and max(values, default=0) <= _max
                and not any(map(math.isnan, values)))


class Integer(metaclass=_SpecType):
    """Spec type of an integer (not a bool)."""

    @staticmethod
    def accepts(value) -> bool:
        return value.__class__ is int

    @staticmethod
    def accepts_all(values) -> bool:
        return {int}.issuperset(map(type, values))


class Id(metaclass=_SpecType):
    """Spec type of a record id: a string or an integer (not a bool)."""

    @staticmethod
    def accepts(value) -> bool:
        return value.__class__ is str or value.__class__ is int

    @staticmethod
    def accepts_all(values) -> bool:
        return {str, int}.issuperset(map(type, values))


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


def _check_block(block: list, spec: dict) -> bool:
    """Whether ``check(rec, spec, ...)`` passes for every record of a
    ``block`` of JSON-decoded values, testing each key's values together."""
    if not {dict}.issuperset(map(type, block)):
        return False
    for key, kind in spec.items():
        try:
            values = list(map(itemgetter(key), block))
        except KeyError:
            return False
        if not (kind.accepts_all(values) if kind.__class__ is _SpecType
                else all(map(_is, values, repeat(kind)))):
            return False
    return True


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


def _decode(line: str):
    # json.loads without its wrapper, whose whitespace scans cost about as
    # much as parsing a short record; the line is stripped
    rec, end = _DECODER.raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return rec


def read_jsonl(path, error: type[ValueError], required: dict):
    """Yield the JSON object on each nonblank line of ``path``.

    ``required`` is the spec each record is ``check``ed against. The file
    is read a block of ``_BLOCK_LINES`` lines at a time: the block's records
    are decoded, tested one key across the block at once, and yielded once
    all of them pass. A block holding a line that does not parse or a
    record that fails the check is decoded and checked again line by line,
    each record yielded once it passes, so the first fault in file order
    raises ``error`` naming ``path:line``, after the records above it. A
    line that is not UTF-8 is such a fault too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while True:
            try:
                lines = list(map(str.strip, islice(fh, _BLOCK_LINES)))
            except UnicodeDecodeError:
                # the decoder reads ahead of the lines, so find the line anew
                lines, lineno, exc = _utf8_fault(path, first)
                yield from _checked_lines(lines, first, path, error, required)
                raise error(f"{path}:{lineno}: bad record: {exc}") from exc
            if not lines:
                return
            try:
                block = [_decode(line) for line in lines if line]
            except json.JSONDecodeError:
                block = None
            if block is not None and _check_block(block, required):
                yield from block
                # the next block is decoded with this one freed
                del block
            else:
                yield from _checked_lines(lines, first, path, error, required)
            first += len(lines)


def _checked_lines(lines: list[str], first: int, path, error: type[ValueError],
                   required: dict):
    """Decode and ``check`` each nonblank one of ``lines``, line ``first``
    of ``path`` onwards, yielding its record once it passes."""
    for lineno, line in enumerate(lines, start=first):
        if not line:
            continue
        try:
            rec = _decode(line)
            check(rec, required, "record")
        except json.JSONDecodeError as exc:
            raise error(f"{path}:{lineno}: bad record: {exc}") from exc
        except DatasetError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
        yield rec


def _utf8_fault(path, first: int) -> tuple[list[str], int, UnicodeDecodeError]:
    """The first line of ``path``, from line ``first`` on, whose bytes are
    not UTF-8: the stripped lines before it, its number and its error."""
    lines = []
    # surrogateescape keeps the bad bytes, and the lines split as in read_jsonl
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno < first:
                continue
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return lines, lineno, exc
            lines.append(line.strip())
    raise AssertionError(f"{path} decodes as UTF-8 line by line")


_NOTE_SPEC = {"admission_id": Id, "text": str}
_LABEL_SPEC = {"admission_id": Id, "labels": list[str]}


def load_notes(path) -> dict[str, str]:
    """admission_id -> document text, in file order."""
    notes: dict[str, str] = {}
    for rec in read_jsonl(path, DatasetError, _NOTE_SPEC):
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
    for rec in read_jsonl(path, DatasetError, _LABEL_SPEC):
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
