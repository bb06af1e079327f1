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
spec of the same kind, tested a block of records at a time: one function
asks whether every value in a sequence is of a spec's type, of one value
for ``check`` and of one key across a block for the block test. A record line
ends at ``\\n`` only (a lone ``\\r`` does not end one), and is UTF-8; a
block that fails in any way is read again line by line, which names the
first faulty line. Each artefact states its spec once, beside its reader.

Numbers follow one rule, ``as_number``'s: an int setting takes a Python or
numpy integer, a float one any real number, numpy's included, neither a bool;
it must be finite and at least its bound, is kept as a plain int or float,
and anything else raises a ValueError naming it. ``from_fields`` builds a
settings dataclass from a file's object of exactly its fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import fields
from itertools import islice, repeat
from operator import itemgetter
from types import GenericAlias, UnionType
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
# What decoding a record line raises: bytes that are not UTF-8, text that is
# not JSON, an integer past int's digit limit, nesting past the recursion limit
_UNDECODABLE = (ValueError, RecursionError)
# JSON's whitespace, all a record line may hold around its value
_JSON_SPACE = " \t\n\r"


class FiniteNumber:
    """Spec type of a finite number (not a bool, NaN or ±Infinity)."""

    @staticmethod
    def accepts_all(values, _max=sys.float_info.max) -> bool:
        # min and max compare ints and floats exactly, so 10**400 is out of
        # range; they may step over a NaN, but once every value is in range
        # isnan can take the ints
        return ({float, int}.issuperset(map(type, values))
                and -_max <= min(values, default=0) and max(values, default=0) <= _max
                and not any(map(math.isnan, values)))


class Integer:
    """Spec type of an integer (not a bool)."""

    @staticmethod
    def accepts_all(values) -> bool:
        return {int}.issuperset(map(type, values))


class Id:
    """Spec type of a record id: a string or an integer (not a bool)."""

    @staticmethod
    def accepts_all(values) -> bool:
        return {str, int}.issuperset(map(type, values))


# each tests a sequence of JSON-decoded values at once, with ``accepts_all``
_SPEC_TYPES = (FiniteNumber, Integer, Id)


def _all_of(values, kind) -> bool:
    """Whether every one of ``values`` is of the spec ``kind``."""
    if kind in _SPEC_TYPES:
        return kind.accepts_all(values)
    if kind.__class__ is UnionType:
        classes = tuple(k for k in kind.__args__ if k not in _SPEC_TYPES)
        specs = [k for k in kind.__args__ if k in _SPEC_TYPES]
        rest = [value for value in values if not isinstance(value, classes)]
        # one spec type taking all the rest settles it without a test per value
        return (any(k.accepts_all(rest) for k in specs)
                or all(any(k.accepts_all((value,)) for k in specs) for value in rest))
    if kind.__class__ is _LITERAL:
        return all(any(value.__class__ is v.__class__ and value == v for v in kind.__args__)
                   for value in values)
    if kind.__class__ is GenericAlias:
        outer, item = kind.__origin__, kind.__args__[-1]
        # a dict's keys are not checked: JSON object keys are strings
        return (all(map(isinstance, values, repeat(outer)))
                and _all_of([x for value in values
                             for x in (value.values() if outer is dict else value)], item))
    return all(map(isinstance, values, repeat(kind)))


def check(payload, spec: dict, where: str) -> None:
    """Raise DatasetError, naming ``where``, the key and the value, unless
    ``payload`` is an object holding each key of ``spec`` with a value of its type."""
    if not isinstance(payload, dict):
        raise DatasetError(f"{where} is a {type(payload).__name__}, not an object")
    for key, kind in spec.items():
        if key not in payload:
            raise DatasetError(f"{where} has no {key!r}")
        value = payload[key]
        if not _all_of((value,), kind):
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
        if not _all_of(values, kind):
            return False
    return True


def check_binary(targets, row: str = "row") -> None:
    """Raise ValueError unless every target is 0 or 1 (NaN is neither),
    naming the first other one by its ``row`` index and, in a label matrix,
    its label column."""
    targets = np.asarray(targets)
    bad = np.argwhere((targets != 0.0) & (targets != 1.0))
    if len(bad):
        where = f"{row} {bad[0][0]}" + (f", label column {bad[0][1]}" if targets.ndim == 2 else "")
        raise ValueError(f"{where}: target {targets[tuple(bad[0])]} is not 0 or 1")


def as_number(value, name: str, low, kind: type = int):
    """``value`` as a plain ``kind`` (int or float) by the module's number rule."""
    real = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, real) and not isinstance(value, bool):
        with suppress(OverflowError):  # float() of an int past float's range
            number = kind(value)
            if number >= low and (kind is int or math.isfinite(number)):
                return number
    raise ValueError(f"{name!r} must be {'an integer' if kind is int else 'a finite number'} "
                     f">= {low}, got {value!r}")


def from_fields(cls, payload: dict, where: str):
    """Dataclass ``cls`` from ``payload``, an object of exactly its fields; a
    missing or unknown key or a refused value raises DatasetError naming ``where``."""
    names = [f.name for f in fields(cls)]
    check(payload, dict.fromkeys(names, object), where)
    if unknown := sorted(set(payload) - set(names)):
        raise DatasetError(f"{where} has unknown keys {unknown}")
    try:
        return cls(**payload)
    except ValueError as exc:
        raise DatasetError(f"{where}: {exc}") from None


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
        except _UNDECODABLE as exc:
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

    Lines end at ``\\n`` only, as in JSON Lines: the ``\\r`` of ``\\r\\n``
    is stripped as JSON whitespace, and a lone ``\\r`` ends no line. As in
    ``json.loads``, only JSON's whitespace is stripped from a line's edges.
    The file is read as bytes, ``_BLOCK_LINES`` lines at a time. A block is
    decoded from UTF-8 once, its records are decoded and tested against the
    spec ``required`` one key across the block at once, and they are yielded
    once all of them pass. A block that fails in any way goes to the one
    fallback, ``_checked_lines``, which decodes and checks it line by line,
    so the first fault in file order raises ``error`` naming ``path:line``,
    after the records above it.
    """
    with open(path, "rb") as fh:
        first = 1
        while raw := list(islice(fh, _BLOCK_LINES)):
            try:
                lines = b"".join(raw).decode("utf-8").split("\n")
                block = [_decode(s) for line in lines if (s := line.strip(_JSON_SPACE))]
            except _UNDECODABLE:
                block = None
            if block is not None and _check_block(block, required):
                yield from block
                # the next block is decoded with this one freed
                del block
            else:
                yield from _checked_lines(raw, first, path, error, required)
            first += len(raw)


def _checked_lines(raw: list[bytes], first: int, path, error: type[ValueError],
                   required: dict):
    """Decode and ``check`` each nonblank one of the ``raw`` lines, line
    ``first`` of ``path`` onwards, yielding its record once it passes."""
    for lineno, line in enumerate(raw, start=first):
        try:
            line = line.decode("utf-8").strip(_JSON_SPACE)
            if not line:
                continue
            rec = _decode(line)
            check(rec, required, "record")
        except DatasetError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
        except _UNDECODABLE as exc:
            raise error(f"{path}:{lineno}: bad record: {exc}") from exc
        yield rec


_NOTE_SPEC = {"admission_id": Id, "text": str}
_LABEL_SPEC = {"admission_id": Id, "labels": list[str]}


def _load_keyed(path, spec: dict, field: str, name: str) -> dict:
    """admission_id -> the ``field`` of each record of the ``name`` file
    ``path``, in file order; an id met twice raises DatasetError."""
    out = {}
    for rec in read_jsonl(path, DatasetError, spec):
        aid = str(rec["admission_id"])
        if aid in out:
            raise DatasetError(f"duplicate admission_id in {name}: {aid}")
        out[aid] = rec[field]
    return out


def load_notes(path) -> dict[str, str]:
    """admission_id -> document text, in file order."""
    return _load_keyed(path, _NOTE_SPEC, "text", "notes")


def save_notes(notes: dict[str, str], path) -> None:
    write_jsonl(({"admission_id": aid, "text": text} for aid, text in notes.items()), path)


def load_labels(path) -> dict[str, list[str]]:
    """admission_id -> list of gold label names."""
    return _load_keyed(path, _LABEL_SPEC, "labels", "labels")


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


def _repeated(ids) -> list[str]:
    """The ids met more than once, sorted."""
    return sorted(str(aid) for aid, n in Counter(ids).items() if n > 1)


def split_ids(ids, ratios, seed) -> dict[str, list[str]]:
    """Disjoint covering train/val/test split by seeded shuffle.

    The ids must be distinct, the seed an integer >= 0, and the ratios
    finite, non-negative and summing to 1. Boundaries are the rounded
    cumulative ratios; every part must be nonempty.
    """
    seed = as_number(seed, "seed", 0)
    ids = list(ids)
    if len(ratios) != 3:
        raise DatasetError(f"need 3 split ratios, got {len(ratios)}")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise DatasetError(f"split ratios must be finite and non-negative, got {tuple(ratios)}")
    if repeated := _repeated(ids):
        raise DatasetError(f"cannot split repeated admission ids {repeated}")
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
    if repeated := _repeated(aid for name in _SPLITS for aid in parts[name]):
        raise DatasetError(f"{where} puts admissions {repeated} in more than one place")
    return parts
