"""Featurization checks: worked examples, schema freezing, determinism,
property tests for the aggregation rules, and a fuzzed comparison with the
column-by-column oracle."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import aggregate_time_series, featurize_row
from treefuse.tabular import (
    MULTIVALUED_CATEGORIES,
    RecordError,
    StructuredRecordSet,
    apply_schema,
    build_feature_table,
    build_schema,
    load_record_sets,
    load_schema,
    save_schema,
    schema_sha256,
    schema_to_dict,
)


def column_index(schema):
    return {c.name: i for i, c in enumerate(schema.columns)}


def make_admission(aid, ts=None, mv=None, singles=None):
    return StructuredRecordSet(
        admission_id=aid,
        time_series=ts or {},
        multivalued=mv or [],
        singletons=singles or {},
    )


def small_training_set():
    a = make_admission(
        "adm1",
        ts={"heart_rate": [1.0, 2.0, 3.0]},
        mv=[("drug", "4821"), ("drug", "777")],
        singles={"age": 63.0},
    )
    b = make_admission(
        "adm2",
        ts={"heart_rate": [5.0]},
        mv=[("drug", "777")],
        singles={"age": 40.0},
    )
    return [a, b]


class TestAggregation:
    def test_mean_max_min(self):
        assert aggregate_time_series([1.0, 2.0, 3.0]) == (2.0, 3.0, 1.0)

    def test_empty_all_missing(self):
        out = aggregate_time_series([])
        assert all(np.isnan(v) for v in out)

    def test_singleton(self):
        assert aggregate_time_series([5.0]) == (5.0, 5.0, 5.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            aggregate_time_series([1.0, np.inf])

    @pytest.mark.parametrize("series, want", [
        # the sum is inf, but the mean of these finite values is 1.7e308 / 3
        ([1.7e308, 1.7e308, -1.7e308], 1.7e308 / 3),
        # numpy's pairwise sum meets inf + -inf and gives nan
        ([1.7e308, 1.7e308, -1.7e308, -1.7e308, 0.0, 0.0, 0.0, 0.0], 0.0),
    ])
    def test_mean_of_overflowing_sum(self, series, want):
        mean, mx, mn = aggregate_time_series(series)
        assert mean == pytest.approx(want, rel=1e-15)
        assert (mx, mn) == (1.7e308, -1.7e308)
        rs = make_admission("a", ts={"hr": list(series)})
        table = apply_schema([rs], build_schema([rs]))
        assert table.values[0].tolist() == [mx, mean, mn]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_ordering_property(self, values):
        mean, mx, mn = aggregate_time_series(values)
        assert mn <= mean <= mx

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=15), st.randoms())
    def test_permutation_invariant_extremes(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        _, mx1, mn1 = aggregate_time_series(values)
        _, mx2, mn2 = aggregate_time_series(shuffled)
        assert mx1 == mx2 and mn1 == mn2


class TestSchema:
    def test_column_count_example(self):
        # 1 ts class (3 cols) + 2 drugs (2) + 1 numeric singleton (1) = 6.
        table, schema = build_feature_table(small_training_set())
        assert schema.width() == 6
        assert table.values.shape == (2, 6)

    def test_column_order_lexicographic(self):
        _, schema = build_feature_table(small_training_set())
        keys = [(c.kind, c.source_id) for c in schema.columns]
        assert keys == sorted(keys)

    def test_names_unique(self):
        _, schema = build_feature_table(small_training_set())
        names = [c.name for c in schema.columns]
        assert len(names) == len(set(names))

    def test_determinism_byte_identical(self):
        s1 = build_schema(small_training_set())
        s2 = build_schema(small_training_set())
        assert schema_to_dict(s1) == schema_to_dict(s2)
        assert schema_sha256(s1) == schema_sha256(s2)

    def test_record_order_does_not_change_schema(self):
        recs = small_training_set()
        flipped = [recs[1], recs[0]]
        assert schema_sha256(build_schema(recs)) == schema_sha256(build_schema(flipped))

    def test_categorical_map_sorted(self):
        recs = [
            make_admission("a", singles={"admission_type": "EMERGENCY"}),
            make_admission("b", singles={"admission_type": "ELECTIVE"}),
        ]
        schema = build_schema(recs)
        assert [c.source_id for c in schema.columns] == [
            "admission_type=ELECTIVE", "admission_type=EMERGENCY",
        ]

    def test_mixed_singleton_types_rejected(self):
        recs = [
            make_admission("a", singles={"age": 63.0}),
            make_admission("b", singles={"age": "unknown"}),
        ]
        with pytest.raises(RecordError):
            build_schema(recs)

    def test_null_numeric_singleton_is_absent(self):
        recs = [
            make_admission("a", singles={"age": 60.0}),
            make_admission("b", singles={"age": None}),
        ]
        table, schema = build_feature_table(recs)
        assert [c.name for c in schema.columns] == ["singleton_numeric:age"]
        np.testing.assert_array_equal(table.values, [[60.0], [np.nan]])

    def test_null_categorical_singleton_is_absent(self):
        recs = [
            make_admission("a", singles={"admission_type": "EMERGENCY"}),
            make_admission("b", singles={"admission_type": None}),
        ]
        table, schema = build_feature_table(recs)
        assert [c.name for c in schema.columns] == ["singleton_onehot:admission_type=EMERGENCY"]
        np.testing.assert_array_equal(table.values, [[1.0], [0.0]])

    def test_categorical_field_name_with_separator_rejected(self):
        # field "x=y" with value "z" and field "x" with value "y=z" would
        # both be the column singleton_onehot:x=y=z
        recs = [
            make_admission("a", singles={"x=y": "z"}),
            make_admission("b", singles={"x": "y=z"}),
        ]
        with pytest.raises(RecordError, match=re.escape("contain '=': ['x=y']")):
            build_schema(recs)

    def test_empty_training_set_rejected(self):
        with pytest.raises(RecordError, match="no training records"):
            build_feature_table([])


class TestCells:
    def test_binary_presence_and_absence(self):
        _, schema = build_feature_table(small_training_set())
        idx = column_index(schema)
        table, _ = build_feature_table(small_training_set())
        row1 = table.values[0]
        row2 = table.values[1]
        assert row1[idx["binary_indicator:drug:4821"]] == 1.0
        assert row2[idx["binary_indicator:drug:4821"]] == 0.0
        assert row2[idx["binary_indicator:drug:777"]] == 1.0

    def test_unseen_item_ignored(self):
        _, schema = build_feature_table(small_training_set())
        binary = [i for i, c in enumerate(schema.columns) if c.kind == "binary_indicator"]
        table = apply_schema([make_admission("u", mv=[("drug", "9999")])], schema)
        assert table.values.shape == (1, schema.width())
        np.testing.assert_array_equal(table.values[0, binary], [0.0, 0.0])

    def test_binary_cells_never_missing(self):
        table, schema = build_feature_table(small_training_set())
        binary = [i for i, c in enumerate(schema.columns) if c.kind == "binary_indicator"]
        assert not np.any(np.isnan(table.values[:, binary]))

    def test_numeric_singleton_passthrough(self):
        table, schema = build_feature_table(small_training_set())
        idx = column_index(schema)
        assert table.values[0][idx["singleton_numeric:age"]] == 63.0

    def test_onehot_encoding(self):
        recs = [
            make_admission("a", singles={"admission_type": "EMERGENCY"}),
            make_admission("b", singles={"admission_type": "ELECTIVE"}),
        ]
        schema = build_schema(recs)
        table = apply_schema([make_admission("c", singles={"admission_type": "EMERGENCY"})],
                             schema)
        np.testing.assert_array_equal(table.values, [[0.0, 1.0]])

    def test_unseen_category_all_zero(self):
        recs = [
            make_admission("a", singles={"admission_type": "EMERGENCY"}),
            make_admission("b", singles={"admission_type": "ELECTIVE"}),
        ]
        schema = build_schema(recs)
        table = apply_schema([make_admission("c", singles={"admission_type": "NEWBORN"})],
                             schema)
        np.testing.assert_array_equal(table.values, [[0.0, 0.0]])

    def test_field_with_separator_misses_onehot_column(self):
        # column kind=b=c is field "kind", value "b=c"; field "kind=b" with
        # value "c" is unknown, though "kind=b" + "=" + "c" spells the same
        schema = build_schema([make_admission("a", singles={"kind": "b=c"})])
        assert [c.name for c in schema.columns] == ["singleton_onehot:kind=b=c"]
        table = apply_schema([make_admission("x", singles={"kind=b": "c"})], schema)
        np.testing.assert_array_equal(table.values, [[0.0]])

    def test_absent_numeric_singleton_missing(self):
        recs = [
            make_admission("a", singles={"age": 60.0}),
            make_admission("b", singles={}),
        ]
        table, schema = build_feature_table(recs)
        idx = column_index(schema)
        assert np.isnan(table.values[1][idx["singleton_numeric:age"]])

    @pytest.mark.parametrize("value", ["unknown", [3], True, "12"],
                             ids=["string", "list", "bool", "numeric-string"])
    def test_non_numeric_value_in_numeric_field_names_admission_and_field(self, value):
        _, schema = build_feature_table(small_training_set())
        recs = [make_admission("ok", singles={"age": 1}),
                make_admission("adm7", singles={"age": value})]
        with pytest.raises(RecordError, match=r"adm7: singleton field 'age' is numeric"):
            apply_schema(recs, schema)

    def test_ts_aggregates_in_row(self):
        table, schema = build_feature_table(small_training_set())
        idx = column_index(schema)
        row1 = table.values[0]
        assert row1[idx["ts_mean:heart_rate"]] == 2.0
        assert row1[idx["ts_max:heart_rate"]] == 3.0
        assert row1[idx["ts_min:heart_rate"]] == 1.0

    def test_non_finite_ts_names_admission_and_class(self):
        recs = [make_admission("adm9", ts={"hr": [float("inf")]})]
        schema = build_schema(recs)
        with pytest.raises(RecordError, match=r"adm9.*hr"):
            apply_schema(recs, schema)


class TestApplySchema:
    def test_training_refeaturization_identical(self):
        recs = small_training_set()
        table, schema = build_feature_table(recs)
        again = apply_schema(recs, schema)
        np.testing.assert_array_equal(table.values, again.values)
        assert table.admission_ids == again.admission_ids

    def test_zero_record_admission(self):
        recs = small_training_set()
        _, schema = build_feature_table(recs)
        table = apply_schema([make_admission("fresh")], schema)
        row = table.values[0]
        idx = column_index(schema)
        for c in schema.columns:
            v = row[idx[c.name]]
            if c.kind in ("ts_mean", "ts_max", "ts_min", "singleton_numeric"):
                assert np.isnan(v)
            else:
                assert v == 0.0

    def test_only_unseen_items_matches_empty(self):
        recs = small_training_set()
        _, schema = build_feature_table(recs)
        unseen = make_admission(
            "u", ts={"novel": [4.0]}, mv=[("drug", "000")],
            singles={"brand_new": 9.0},
        )
        # A schema-unknown numeric singleton has no column, so nothing lands.
        empty = apply_schema([make_admission("e")], schema).values[0]
        got = apply_schema([unseen], schema).values[0]
        np.testing.assert_array_equal(
            np.isnan(got), np.isnan(empty)
        )
        np.testing.assert_array_equal(
            got[~np.isnan(got)], empty[~np.isnan(empty)]
        )

    def test_duplicate_admission_rejected(self):
        recs = small_training_set()
        _, schema = build_feature_table(recs)
        with pytest.raises(RecordError, match="duplicate"):
            apply_schema([recs[0], recs[0]], schema)

    def test_record_order_within_admission_irrelevant(self):
        a1 = make_admission(
            "a", mv=[("drug", "1"), ("drug", "2")], singles={"age": 5.0}
        )
        a2 = make_admission(
            "a", mv=[("drug", "2"), ("drug", "1")], singles={"age": 5.0}
        )
        schema = build_schema([a1])
        r1 = apply_schema([a1], schema).values
        r2 = apply_schema([a2], schema).values
        np.testing.assert_array_equal(r1, r2)


class TestDiskFormats:
    def test_schema_round_trip(self, tmp_path):
        recs = small_training_set() + [
            make_admission("c", singles={"admission_type": "EMERGENCY"})
        ]
        schema = build_schema(recs)
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        loaded = load_schema(path)
        assert schema_to_dict(loaded) == schema_to_dict(schema)

    def test_jsonl_loader_groups_by_admission(self, tmp_path):
        ts = tmp_path / "timeseries.jsonl"
        ev = tmp_path / "events.jsonl"
        sg = tmp_path / "singletons.jsonl"
        ts.write_text(
            '{"admission_id": "a", "class_id": "hr", "timestamp": 0.0, "value": 1.0}\n'
            '{"admission_id": "a", "class_id": "hr", "timestamp": 1.0, "value": 3.0}\n'
        )
        ev.write_text('{"admission_id": "b", "category": "drug", "item_id": "7"}\n')
        sg.write_text('{"admission_id": "a", "field": "age", "value": 30}\n')
        recs = load_record_sets(ts, ev, sg)
        assert [r.admission_id for r in recs] == ["a", "b"]
        assert recs[0].time_series["hr"] == [1.0, 3.0]
        assert recs[1].multivalued == [("drug", "7")]
        assert recs[0].singletons == {"age": 30}

    def test_unknown_event_category_rejected(self, tmp_path):
        ts = tmp_path / "t.jsonl"
        ev = tmp_path / "e.jsonl"
        sg = tmp_path / "s.jsonl"
        ts.write_text("")
        sg.write_text("")
        ev.write_text('{"admission_id": "a", "category": "procedure", "item_id": "7"}\n')
        with pytest.raises(RecordError, match="category"):
            load_record_sets(ts, ev, sg)

    def test_duplicate_singleton_field_last_wins(self, tmp_path):
        ts = tmp_path / "t.jsonl"
        ev = tmp_path / "e.jsonl"
        sg = tmp_path / "s.jsonl"
        ts.write_text("")
        ev.write_text("")
        sg.write_text(
            '{"admission_id": "a", "field": "age", "value": 30}\n'
            '{"admission_id": "a", "field": "age", "value": 31}\n'
        )
        recs = load_record_sets(ts, ev, sg)
        assert recs[0].singletons == {"age": 31}

    @pytest.mark.parametrize(
        "slot, line, complaint",
        [
            (0, '{"admission_id": "a", "class_id": "hr", "value": 1.0}', "'timestamp'"),
            (0, '[1, 2]', "list, not an object"),
            (1, '{"admission_id": "a", "category": "drug"}', "'item_id'"),
            (1, '{"category": "drug", "item_id": "7"}', "'admission_id'"),
            (2, '{"admission_id": "a", "value": 30}', "'field'"),
            (2, '7', "int, not an object"),
            (0, '{"admission_id": null, "class_id": ["x"], "timestamp": 0, "value": 1.0}',
             "'admission_id'"),
            (1, '{"admission_id": true, "category": "drug", "item_id": "7"}', "'admission_id'"),
            (2, '{"admission_id": "a", "field": ["age"], "value": 30}', "'field'"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, slot, line, complaint):
        paths = [tmp_path / f"{name}.jsonl" for name in ("ts", "ev", "sg")]
        for p in paths:
            p.write_text("")
        paths[slot].write_text(line + "\n")
        with pytest.raises(RecordError, match=f"{paths[slot].name}:1: .*{complaint}"):
            load_record_sets(*paths)

    @pytest.mark.parametrize(
        "slot, line, complaint",
        [
            (0, '{"admission_id": "a", "class_id": "hr", "timestamp": "x", "value": 1.0}',
             "'timestamp' must be a FiniteNumber, not \"x\""),
            (0, '{"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": true}',
             "'value' must be a FiniteNumber, not true"),
            (0, '{"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": null}',
             "'value' must be a FiniteNumber, not null"),
            (0, '{"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": NaN}',
             "'value' must be a FiniteNumber, not NaN"),
            (0, '{"admission_id": "a", "class_id": "hr", "timestamp": Infinity, "value": 1}',
             "'timestamp' must be a FiniteNumber, not Infinity"),
            (0, '{"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": -1e999}',
             "'value' must be a FiniteNumber, not -Infinity"),
            (2, '{"admission_id": "a", "field": "age", "value": NaN}',
             "'value' must be a FiniteNumber | str | bool | None, not NaN"),
            (2, '{"admission_id": "a", "field": "age", "value": -Infinity}',
             "'value' must be a FiniteNumber | str | bool | None, not -Infinity"),
            (2, '{"admission_id": "a", "field": "age", "value": [30]}',
             "'value' must be a FiniteNumber | str | bool | None, not [30]"),
            (0, '{"admission_id": null, "class_id": "hr", "timestamp": 0, "value": 1.0}',
             "'admission_id' must be a Id, not null"),
            (0, '{"admission_id": "a", "class_id": ["x"], "timestamp": 0, "value": 1.0}',
             "'class_id' must be a Id, not [\"x\"]"),
            (1, '{"admission_id": "a", "category": "drug", "item_id": true}',
             "'item_id' must be a Id, not true"),
            (1, '{"admission_id": [7], "category": "drug", "item_id": "7"}',
             "'admission_id' must be a Id, not [7]"),
            (2, '{"admission_id": "a", "field": null, "value": 30}',
             "'field' must be a Id, not null"),
            (2, '{"admission_id": true, "field": "age", "value": 30}',
             "'admission_id' must be a Id, not true"),
        ],
    )
    def test_wrong_typed_value_names_file_line_and_key(self, tmp_path, slot, line, complaint):
        paths = [tmp_path / f"{name}.jsonl" for name in ("ts", "ev", "sg")]
        for p in paths:
            p.write_text("")
        paths[slot].write_text(line + "\n")
        with pytest.raises(RecordError, match=re.escape(f"{paths[slot].name}:1: record {complaint}")):
            load_record_sets(*paths)

    def test_typed_values_accepted(self, tmp_path):
        paths = [tmp_path / f"{name}.jsonl" for name in ("ts", "ev", "sg")]
        paths[0].write_text(
            '{"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": -1.5e308}\n')
        paths[1].write_text('{"admission_id": "a", "category": "drug", "item_id": 7}\n')
        paths[2].write_text(
            '{"admission_id": "a", "field": "age", "value": 30}\n'
            '{"admission_id": "a", "field": "flag", "value": false}\n'
            '{"admission_id": "a", "field": "kind", "value": "ELECTIVE"}\n'
            '{"admission_id": "a", "field": "note", "value": null}\n')
        (rec,) = load_record_sets(*paths)
        assert rec.time_series == {"hr": [-1.5e308]}
        assert rec.multivalued == [("drug", "7")]
        assert rec.singletons == {"age": 30, "flag": False, "kind": "ELECTIVE", "note": None}

    @pytest.mark.parametrize("edit, complaint", [
        (lambda p: p.pop("columns"), "has no 'columns'"),
        (lambda p: p["columns"][1].pop("kind"), "column 1 has no 'kind'"),
        (lambda p: p["columns"][2].pop("source_id"), "column 2 has no 'source_id'"),
        (lambda p: p["columns"][1].update(kind="bogus"), "column 1 has unknown kind 'bogus'"),
        (lambda p: p["columns"].__setitem__(0, "binary_indicator:drug:4821"),
         "'columns' must be a list[dict]"),
        (lambda p: p["columns"].remove({"kind": "ts_max", "source_id": "heart_rate"}),
         "has no time-series columns ['ts_max:heart_rate']"),
        (lambda p: p["columns"].append({"kind": "binary_indicator", "source_id": "drug:777"}),
         "column 7 repeats column 1, 'binary_indicator:drug:777'"),
        (lambda p: p["columns"][3].update(source_id="admission_type"),
         "column 3: one-hot source id 'admission_type' is not field=value"),
    ], ids=["no-columns", "no-kind", "no-source-id", "unknown-kind", "column-as-name",
            "partial-series", "repeated-column", "onehot-without-separator"])
    def test_bad_schema_payload_names_key_and_column(self, tmp_path, edit, complaint):
        payload = schema_to_dict(build_schema(
            small_training_set() + [make_admission("c", singles={"admission_type": "EMERGENCY"})]))
        edit(payload)
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"schema {path} {complaint}")):
            load_schema(path)


def fuzz_record_set(rng, aid, later, lengths):
    """One admission's records drawn from small pools; ``later`` adds values
    a training split never holds (unseen classes, items and categories,
    numbers in a categorical field)."""
    rs = StructuredRecordSet(admission_id=aid)
    for c in range(int(rng.integers(0, 6 if later else 5))):
        n = int(rng.integers(129, 300) if rng.uniform() < 0.03 else rng.integers(0, 41))
        lengths.add(n)
        draw = rng.choice(["normal", "ints", "const", "zeros", "huge"])
        if draw == "normal":
            vals = rng.normal(0.0, 10.0, size=n)
        elif draw == "ints":
            vals = rng.integers(-3, 4, size=n).astype(float)
        elif draw == "const":
            vals = np.full(n, rng.normal())
        elif draw == "zeros":
            vals = rng.choice([0.0, -0.0], size=n)
        else:
            vals = rng.choice([1.0, -1.0], size=n) * 10.0 ** rng.uniform(290, 308, size=n)
        rs.time_series[f"c{c}"] = [float(v) for v in vals]
    for _ in range(int(rng.integers(0, 6))):
        category = str(rng.choice(sorted(MULTIVALUED_CATEGORIES)))
        rs.multivalued.append((category, f"i{rng.integers(0, 6 if later else 4)}"))
    numeric = [None, 0.0, -0.0, 3, 2**60 + 1, 1.5e300]
    categorical = [None, "A", "B", "y=z", True, False] + (["NEW", 3.0] if later else [])
    for f in range(3):
        if rng.uniform() < 0.7:
            rs.singletons[f"num{f}"] = (numeric[int(rng.integers(len(numeric)))]
                                        if rng.uniform() < 0.5 else float(rng.normal()))
        if rng.uniform() < 0.7:
            rs.singletons[f"cat{f}"] = categorical[int(rng.integers(len(categorical)))]
    if later and rng.uniform() < 0.3:
        rs.singletons["unseen_field"] = "anything"
    return rs


def test_apply_schema_matches_column_oracle_on_fuzzed_tables():
    rng = np.random.default_rng(20260)
    lengths: set[int] = set()
    for table in range(110):
        train = [fuzz_record_set(rng, f"t{i}", False, lengths)
                 for i in range(int(rng.integers(1, 12)))]
        later = [fuzz_record_set(rng, f"v{i}", True, lengths)
                 for i in range(int(rng.integers(0, 12)))]
        later.append(make_admission("empty"))
        schema = build_schema(train)
        for split in (train, later, []):
            got = apply_schema(split, schema).values
            want = (np.stack([featurize_row(rs, schema) for rs in split]) if split
                    else np.zeros((0, schema.width())))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), f"table {table}"
    # every length up to 40 and one past numpy's 128-value pairwise block
    assert set(range(41)) <= lengths and max(lengths) > 128
