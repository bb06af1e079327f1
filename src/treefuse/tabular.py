"""Structured-record featurization into a fixed-width per-admission table.

Three record categories feed the table: time series are collapsed to
(mean, max, min) per observed class, multivalued event records become
binary presence indicators per (category, item), and per-admission
singleton fields are copied verbatim (numeric) or one-hot encoded
(categorical). MISSING cells are np.nan in memory and null on disk;
binary indicator cells are never missing, absence means 0.

The schema is built once from the training split and frozen: featurizing
any later split ignores classes, items, and categorical values the
training data never produced.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .dataset import FiniteNumber, read_jsonl

SCHEMA_FORMAT_VERSION = 1

MULTIVALUED_CATEGORIES = frozenset(
    {"lab_abnormal", "drug", "organism", "specimen", "antibiotic"}
)

TS_KINDS = ("ts_mean", "ts_max", "ts_min")


class RecordError(ValueError):
    """A structured record violates its contract (bad category, non-finite
    value, duplicate admission)."""


@dataclass
class StructuredRecordSet:
    """All structured records belonging to one admission."""

    admission_id: str
    # class_id -> list of (timestamp, value)
    time_series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    # (category, item_id) pairs; repeats carry no extra information
    multivalued: list[tuple[str, str]] = field(default_factory=list)
    # field name -> numeric or categorical value; duplicate fields keep the
    # last one seen
    singletons: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str
    source_id: str


@dataclass
class FeatureSchema:
    columns: list[FeatureColumn]
    # categorical singleton field -> {value -> one-hot position}
    categorical_maps: dict[str, dict[str, int]]

    def width(self) -> int:
        return len(self.columns)

    def column_index(self) -> dict[str, int]:
        return {c.name: i for i, c in enumerate(self.columns)}


@dataclass
class FeatureTable:
    schema: FeatureSchema
    admission_ids: list[str]
    # rows x schema.width(), float64, np.nan = MISSING
    values: np.ndarray


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_time_series(series) -> tuple[float, float, float]:
    """Collapse one admission's series for one class to (mean, max, min).

    Empty series yields (nan, nan, nan); a non-finite value is rejected.
    """
    vals = np.asarray(list(series), dtype=np.float64)
    if vals.size == 0:
        return (np.nan, np.nan, np.nan)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite value in time series")
    lo, hi = float(np.min(vals)), float(np.max(vals))
    # np.mean can round just outside the range, e.g. one ulp below x for [x, x, x]
    return (min(max(float(np.mean(vals)), lo), hi), hi, lo)


def binarize_multivalued(records, schema: FeatureSchema) -> np.ndarray:
    """Presence indicators for the schema's (category, item) columns.

    Returns one cell per binary_indicator column in schema order; pairs the
    schema never saw are ignored.
    """
    binary_cols = [c for c in schema.columns if c.kind == "binary_indicator"]
    positions = {c.source_id: i for i, c in enumerate(binary_cols)}
    cells = np.zeros(len(binary_cols))
    for category, item_id in records:
        pos = positions.get(f"{category}:{item_id}")
        if pos is not None:
            cells[pos] = 1.0
    return cells


def encode_singletons(singletons: dict, schema: FeatureSchema) -> np.ndarray:
    """Cells for the schema's singleton columns, in schema order.

    Numeric fields copy their value (absent -> nan). Categorical fields
    one-hot against the training-time value map; absent or unseen values
    leave the whole block at 0.
    """
    cols = [c for c in schema.columns if c.kind in ("singleton_numeric", "singleton_onehot")]
    cells = np.empty(len(cols))
    for i, col in enumerate(cols):
        if col.kind == "singleton_numeric":
            value = singletons.get(col.source_id)
            cells[i] = float(value) if value is not None else np.nan
        else:
            fld, _, expected = col.source_id.partition("=")
            value = singletons.get(fld)
            cells[i] = 1.0 if value is not None and str(value) == expected else 0.0
    return cells


def _featurize_row(rs: StructuredRecordSet, schema: FeatureSchema) -> np.ndarray:
    row = np.full(schema.width(), np.nan)
    index = schema.column_index()

    for class_id, points in rs.time_series.items():
        try:
            mean, mx, mn = aggregate_time_series(v for _, v in points)
        except ValueError as exc:
            raise RecordError(
                f"admission {rs.admission_id}: {exc} (class {class_id})"
            ) from exc
        for kind, value in zip(TS_KINDS, (mean, mx, mn)):
            pos = index.get(f"{kind}:{class_id}")
            if pos is not None:
                row[pos] = value

    binary_cols = [i for i, c in enumerate(schema.columns) if c.kind == "binary_indicator"]
    row[binary_cols] = binarize_multivalued(rs.multivalued, schema)

    single_cols = [
        i for i, c in enumerate(schema.columns)
        if c.kind in ("singleton_numeric", "singleton_onehot")
    ]
    row[single_cols] = encode_singletons(rs.singletons, schema)
    return row


def build_schema(record_sets) -> FeatureSchema:
    """Derive the frozen column set from training records.

    Columns are ordered lexicographically by (kind, source_id) so the same
    records always produce the same schema. A singleton field must be
    numeric for every admission or categorical for every admission.
    """
    ts_classes: set[str] = set()
    pairs: set[str] = set()
    numeric_fields: set[str] = set()
    categorical_values: dict[str, set[str]] = {}

    for rs in record_sets:
        ts_classes.update(rs.time_series.keys())
        for category, item_id in rs.multivalued:
            pairs.add(f"{category}:{item_id}")
        for fld, value in rs.singletons.items():
            if _is_numeric(value):
                numeric_fields.add(fld)
            else:
                categorical_values.setdefault(fld, set()).add(str(value))

    mixed = numeric_fields & set(categorical_values)
    if mixed:
        raise RecordError(
            f"singleton fields mix numeric and categorical values: {sorted(mixed)}"
        )

    columns = []
    for class_id in ts_classes:
        for kind in TS_KINDS:
            columns.append(FeatureColumn(f"{kind}:{class_id}", kind, class_id))
    for pair in pairs:
        columns.append(FeatureColumn(f"binary_indicator:{pair}", "binary_indicator", pair))
    for fld in numeric_fields:
        columns.append(FeatureColumn(f"singleton_numeric:{fld}", "singleton_numeric", fld))
    cat_maps: dict[str, dict[str, int]] = {}
    for fld, values in categorical_values.items():
        cat_maps[fld] = {v: i for i, v in enumerate(sorted(values))}
        for v in sorted(values):
            sid = f"{fld}={v}"
            columns.append(FeatureColumn(f"singleton_onehot:{sid}", "singleton_onehot", sid))

    columns.sort(key=lambda c: (c.kind, c.source_id))
    return FeatureSchema(columns=columns, categorical_maps=cat_maps)


def apply_schema(record_sets, schema: FeatureSchema) -> FeatureTable:
    """Featurize admissions against a frozen schema."""
    record_sets = list(record_sets)
    ids = [rs.admission_id for rs in record_sets]
    seen = set()
    for aid in ids:
        if aid in seen:
            raise RecordError(f"duplicate admission_id: {aid}")
        seen.add(aid)
    if record_sets:
        values = np.stack([_featurize_row(rs, schema) for rs in record_sets])
    else:
        values = np.zeros((0, schema.width()))
    return FeatureTable(schema=schema, admission_ids=ids, values=values)


def build_feature_table(record_sets) -> tuple[FeatureTable, FeatureSchema]:
    """Build the schema from training records and featurize them with it."""
    record_sets = list(record_sets)
    if not record_sets:
        raise RecordError("no training records")
    schema = build_schema(record_sets)
    return apply_schema(record_sets, schema), schema


# ---------------------------------------------------------------------------
# Disk formats: three JSONL inputs per split, JSON schema, JSONL table.

def load_record_sets(timeseries_path, events_path, singletons_path) -> list[StructuredRecordSet]:
    """Group the three record files by admission.

    Admissions are ordered by first appearance scanning the time-series,
    event, and singleton files in that order.
    """
    by_id: dict[str, StructuredRecordSet] = {}

    def get(aid) -> StructuredRecordSet:
        aid = str(aid)
        if aid not in by_id:
            by_id[aid] = StructuredRecordSet(admission_id=aid)
        return by_id[aid]

    for rec in read_jsonl(timeseries_path, RecordError, {
            "admission_id": object, "class_id": object,
            "timestamp": FiniteNumber, "value": FiniteNumber}):
        rs = get(rec["admission_id"])
        rs.time_series.setdefault(str(rec["class_id"]), []).append(
            (float(rec["timestamp"]), float(rec["value"]))
        )
    for rec in read_jsonl(events_path, RecordError, dict.fromkeys(
            ("admission_id", "category", "item_id"), object)):
        category = str(rec["category"])
        if category not in MULTIVALUED_CATEGORIES:
            raise RecordError(
                f"admission {rec['admission_id']}: unknown event category {category!r}"
            )
        get(rec["admission_id"]).multivalued.append((category, str(rec["item_id"])))
    for rec in read_jsonl(singletons_path, RecordError, {
            "admission_id": object, "field": object,
            "value": FiniteNumber | str | bool | None}):
        get(rec["admission_id"]).singletons[str(rec["field"])] = rec["value"]
    return list(by_id.values())


def schema_to_dict(schema: FeatureSchema) -> dict:
    return {
        "format_version": SCHEMA_FORMAT_VERSION,
        "columns": [
            {"name": c.name, "kind": c.kind, "source_id": c.source_id}
            for c in schema.columns
        ],
        "categorical_maps": schema.categorical_maps,
    }


def schema_from_dict(payload: dict) -> FeatureSchema:
    version = payload.get("format_version")
    if version != SCHEMA_FORMAT_VERSION:
        raise ValueError(f"unsupported schema format version: {version!r}")
    columns = [
        FeatureColumn(d["name"], d["kind"], d["source_id"]) for d in payload["columns"]
    ]
    maps = {
        fld: {v: int(i) for v, i in m.items()}
        for fld, m in payload["categorical_maps"].items()
    }
    return FeatureSchema(columns=columns, categorical_maps=maps)


def save_schema(schema: FeatureSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_schema(path) -> FeatureSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return schema_from_dict(json.load(fh))


def schema_sha256(schema: FeatureSchema) -> str:
    blob = json.dumps(schema_to_dict(schema), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_feature_table(table: FeatureTable, path) -> None:
    """One line per admission; MISSING cells serialize as null."""
    with open(path, "w", encoding="utf-8") as fh:
        for aid, row in zip(table.admission_ids, table.values):
            cells = [None if np.isnan(v) else float(v) for v in row]
            fh.write(json.dumps({"admission_id": aid, "cells": cells}))
            fh.write("\n")


def load_feature_table(path, schema: FeatureSchema) -> FeatureTable:
    ids = []
    rows = []
    for rec in read_jsonl(path, RecordError,
                          {"admission_id": object, "cells": list[FiniteNumber | None]}):
        cells = rec["cells"]
        if len(cells) != schema.width():
            raise RecordError(
                f"admission {rec['admission_id']}: row width {len(cells)} "
                f"does not match schema width {schema.width()}"
            )
        ids.append(str(rec["admission_id"]))
        rows.append(cells)
    # null cells become NaN
    values = np.array(rows, dtype=np.float64).reshape(len(rows), schema.width())
    return FeatureTable(schema=schema, admission_ids=ids, values=values)
