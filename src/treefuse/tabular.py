"""Structured-record featurization into a fixed-width per-admission table.

Three record categories feed the table: time series are collapsed to
(mean, max, min) per observed class, multivalued event records become
binary presence indicators per (category, item), and per-admission
singleton fields are copied verbatim (numeric) or one-hot encoded
(categorical). MISSING cells are np.nan; binary indicator and one-hot
cells are never missing, absence means 0.

The schema is built once from the training split and frozen: featurizing
any later split ignores classes, items, and categorical values the
training data never produced.

A schema file (format version 2) holds ``format_version`` and ``columns``,
the table's columns in order, each ``{"kind", "source_id"}``. A one-hot
column's source id is ``field=value``; the field names never contain "=".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .dataset import FiniteNumber, Id, check, json_sha256, read_json, read_jsonl, write_json

SCHEMA_FORMAT_VERSION = 2

MULTIVALUED_CATEGORIES = frozenset(
    {"lab_abnormal", "drug", "organism", "specimen", "antibiotic"}
)

TS_KINDS = ("ts_mean", "ts_max", "ts_min")
COLUMN_KINDS = TS_KINDS + ("binary_indicator", "singleton_numeric", "singleton_onehot")


class RecordError(ValueError):
    """A structured record violates its contract (bad category, non-finite
    value, duplicate admission)."""


@dataclass
class StructuredRecordSet:
    """All structured records belonging to one admission."""

    admission_id: str
    # class_id -> the series' values in file order; no stage reads timestamps
    time_series: dict[str, list[float]] = field(default_factory=dict)
    # (category, item_id) pairs; repeats carry no extra information
    multivalued: list[tuple[str, str]] = field(default_factory=list)
    # field name -> numeric or categorical value, None for absent; duplicate
    # fields keep the last one seen
    singletons: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class FeatureColumn:
    kind: str
    source_id: str

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.source_id}"


@dataclass
class FeatureSchema:
    columns: list[FeatureColumn]

    def width(self) -> int:
        return len(self.columns)


@dataclass
class FeatureTable:
    schema: FeatureSchema
    admission_ids: list[str]
    # rows x schema.width(), float64, np.nan = MISSING
    values: np.ndarray


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def build_schema(record_sets) -> FeatureSchema:
    """Derive the frozen column set from training records.

    Columns are ordered lexicographically by (kind, source_id) so the same
    records always produce the same schema. A singleton field must be
    numeric for every admission or categorical for every admission (None
    values are absent and count as neither), and a categorical field's name
    must not contain "=", which separates it from the value in the column.
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
            if value is None:
                continue
            if _is_numeric(value):
                numeric_fields.add(fld)
            else:
                categorical_values.setdefault(fld, set()).add(str(value))

    mixed = numeric_fields & set(categorical_values)
    if mixed:
        raise RecordError(
            f"singleton fields mix numeric and categorical values: {sorted(mixed)}"
        )
    joined = [fld for fld in categorical_values if "=" in fld]
    if joined:
        raise RecordError(f"categorical singleton field names contain '=': {sorted(joined)}")

    columns = [FeatureColumn(kind, class_id) for class_id in ts_classes for kind in TS_KINDS]
    columns += [FeatureColumn("binary_indicator", pair) for pair in pairs]
    columns += [FeatureColumn("singleton_numeric", fld) for fld in numeric_fields]
    columns += [FeatureColumn("singleton_onehot", f"{fld}={v}")
                for fld, values in categorical_values.items() for v in values]
    columns.sort(key=lambda c: (c.kind, c.source_id))
    return FeatureSchema(columns=columns)


def apply_schema(record_sets, schema: FeatureSchema) -> FeatureTable:
    """Featurize admissions against a frozen schema.

    One pass over the records gathers every cell. Time series are then
    reduced per length: each row of a (series, length) matrix is summed in
    the same order as np.mean on that series alone, so every mean is bitwise
    the per-series one. A non-finite series value, or a non-numeric value in
    a numeric singleton field, raises RecordError naming the admission.
    """
    record_sets = list(record_sets)
    ids = [rs.admission_id for rs in record_sets]
    seen = set()
    for aid in ids:
        if aid in seen:
            raise RecordError(f"duplicate admission_id: {aid}")
        seen.add(aid)

    by_kind: dict[str, dict[str, int]] = {kind: {} for kind in COLUMN_KINDS}
    for i, c in enumerate(schema.columns):
        by_kind[c.kind][c.source_id] = i
    ts_cols = {cid: tuple(by_kind[k][cid] for k in TS_KINDS) for cid in by_kind["ts_mean"]}
    pair_cols, numeric_cols = by_kind["binary_indicator"], by_kind["singleton_numeric"]
    # (field, value) -> column; a field name holds no "=", so the first "="
    # splits a source id, and an unknown field "a=b" never meets column a=b=c
    onehot_cols = {tuple(sid.split("=", 1)): i
                   for sid, i in by_kind["singleton_onehot"].items()}

    hit_rows, hit_cols = [], []
    num_rows, num_cols, num_vals = [], [], []
    flat = []  # every series value, in record order
    # length -> (offset into flat, row, column triple) of each known series
    groups: dict[int, list[tuple]] = {}
    for r, rs in enumerate(record_sets):
        for class_id, vals in rs.time_series.items():
            cols = ts_cols.get(class_id)
            if cols is not None and vals:
                groups.setdefault(len(vals), []).append((len(flat), r, cols))
            flat.extend(vals)
        for category, item_id in rs.multivalued:
            col = pair_cols.get(f"{category}:{item_id}")
            if col is not None:
                hit_rows.append(r)
                hit_cols.append(col)
        for fld, value in rs.singletons.items():
            if value is None:
                continue
            col = numeric_cols.get(fld)
            if col is not None:
                if not _is_numeric(value):
                    raise RecordError(f"admission {rs.admission_id}: singleton field "
                                      f"{fld!r} is numeric, got {value!r}")
                num_rows.append(r)
                num_cols.append(col)
                num_vals.append(float(value))
            else:
                col = onehot_cols.get((fld, str(value)))
                if col is not None:
                    hit_rows.append(r)
                    hit_cols.append(col)

    flat = np.array(flat, dtype=np.float64)
    if not np.isfinite(flat).all():
        for rs in record_sets:
            for class_id, vals in rs.time_series.items():
                if not np.isfinite(vals).all():
                    raise RecordError(f"admission {rs.admission_id}: non-finite value "
                                      f"in time series (class {class_id})")

    values = np.full((len(record_sets), schema.width()), np.nan)
    values[:, [*pair_cols.values(), *by_kind["singleton_onehot"].values()]] = 0.0
    values[hit_rows, hit_cols] = 1.0
    values[num_rows, num_cols] = num_vals
    for length, series in groups.items():
        starts, rows, targets = zip(*series)
        m = flat[np.add.outer(starts, np.arange(length))]
        lo, hi = m.min(axis=1), m.max(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = m.mean(axis=1)
            # a finite series whose sum overflows (or meets inf - inf in
            # numpy's pairwise blocks): average the scaled values instead
            big = ~np.isfinite(mean)
            if big.any():
                mean[big] = np.sum(m[big] / length, axis=1)
        # the mean can round just outside the range (one ulp below x for [x, x, x]);
        # np.maximum/np.minimum would not keep the mean's signed zero on ties
        mean = np.where(lo > mean, lo, mean)
        mean = np.where(hi < mean, hi, mean)
        values[np.array(rows)[:, None], targets] = np.column_stack((mean, hi, lo))
    return FeatureTable(schema=schema, admission_ids=ids, values=values)


def build_feature_table(record_sets) -> tuple[FeatureTable, FeatureSchema]:
    """Build the schema from training records and featurize them with it."""
    record_sets = list(record_sets)
    if not record_sets:
        raise RecordError("no training records")
    schema = build_schema(record_sets)
    return apply_schema(record_sets, schema), schema


# ---------------------------------------------------------------------------
# Disk formats: three JSONL inputs per split and a JSON schema.

def load_record_sets(timeseries_path, events_path, singletons_path) -> list[StructuredRecordSet]:
    """Group the three record files by admission.

    Admissions are ordered by first appearance scanning the time-series,
    event, and singleton files in that order. Every id (admission, class,
    item, field) is a string or an integer, read as its string; timestamps
    must be finite but are not kept.
    """
    by_id: dict[str, StructuredRecordSet] = {}

    def get(aid) -> StructuredRecordSet:
        aid = str(aid)
        if aid not in by_id:
            by_id[aid] = StructuredRecordSet(admission_id=aid)
        return by_id[aid]

    for rec in read_jsonl(timeseries_path, RecordError, {
            "admission_id": Id, "class_id": Id,
            "timestamp": FiniteNumber, "value": FiniteNumber}):
        rs = get(rec["admission_id"])
        rs.time_series.setdefault(str(rec["class_id"]), []).append(float(rec["value"]))
    for rec in read_jsonl(events_path, RecordError, {
            "admission_id": Id, "category": object, "item_id": Id}):
        category = str(rec["category"])
        if category not in MULTIVALUED_CATEGORIES:
            raise RecordError(
                f"admission {rec['admission_id']}: unknown event category {category!r}"
            )
        get(rec["admission_id"]).multivalued.append((category, str(rec["item_id"])))
    for rec in read_jsonl(singletons_path, RecordError, {
            "admission_id": Id, "field": Id,
            "value": FiniteNumber | str | bool | None}):
        get(rec["admission_id"]).singletons[str(rec["field"])] = rec["value"]
    return list(by_id.values())


def schema_to_dict(schema: FeatureSchema) -> dict:
    return {
        "format_version": SCHEMA_FORMAT_VERSION,
        "columns": [{"kind": c.kind, "source_id": c.source_id} for c in schema.columns],
    }


_SCHEMA_SPEC = {"format_version": Literal[SCHEMA_FORMAT_VERSION], "columns": list[dict]}
_COLUMN_SPEC = dict.fromkeys(("kind", "source_id"), str)


def save_schema(schema: FeatureSchema, path) -> None:
    write_json(schema_to_dict(schema), path)


def load_schema(path) -> FeatureSchema:
    """``save_schema``'s file. Its columns are distinct, a time-series class
    has all three aggregates, and a one-hot source id holds "="."""
    where = f"schema {path}"
    payload = read_json(path)
    check(payload, _SCHEMA_SPEC, where)
    first: dict[FeatureColumn, int] = {}
    for i, d in enumerate(payload["columns"]):
        check(d, _COLUMN_SPEC, f"{where} column {i}")
        col = FeatureColumn(d["kind"], d["source_id"])
        if col.kind not in COLUMN_KINDS:
            raise ValueError(f"{where} column {i} has unknown kind {col.kind!r}")
        if col in first:
            raise ValueError(f"{where} column {i} repeats column {first[col]}, {col.name!r}")
        if col.kind == "singleton_onehot" and "=" not in col.source_id:
            raise ValueError(f"{where} column {i}: one-hot source id {col.source_id!r} "
                             "is not field=value")
        first[col] = i
    # apply_schema writes all three aggregates of a class
    missing = {FeatureColumn(k, c.source_id) for c in first if c.kind in TS_KINDS
               for k in TS_KINDS} - first.keys()
    if missing:
        raise ValueError(f"{where} has no time-series columns {sorted(c.name for c in missing)}")
    return FeatureSchema(columns=list(first))


def schema_sha256(schema: FeatureSchema) -> str:
    return json_sha256(schema_to_dict(schema))
