"""The record reader: its block test against ``check`` record by record,
where its lines end, where it reports a fault, and how many records it
holds at once."""

import json
import math
import re
import sys
import tracemalloc
from types import UnionType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treefuse import dataset, tabular
from treefuse.dataset import DatasetError, FiniteNumber, Id, read_jsonl
from treefuse.tabular import RecordError

SPECS = {
    "notes": dataset._NOTE_SPEC,
    "labels": dataset._LABEL_SPEC,
    "timeseries": tabular._TIMESERIES_SPEC,
    "events": tabular._EVENT_SPEC,
    "singletons": tabular._SINGLETON_SPEC,
}
# one record each spec accepts
SAMPLES = {
    "notes": {"admission_id": "a", "text": "x"},
    "labels": {"admission_id": 7, "labels": ["l1"]},
    "timeseries": {"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": 1.5},
    "events": {"admission_id": "a", "category": "drug", "item_id": 7},
    "singletons": {"admission_id": "a", "field": "age", "value": 30},
}

MAX = sys.float_info.max
# values at the edges of the spec types: bool against int, integers past
# the float range, NaN and the infinities, nested lists, objects
EDGES = [
    True, False, None, 0, 1, -0.0, 0.5, 5e-324, 2**53 + 1, 2**1023, -(2**1023),
    int(MAX), int(MAX) + 1, -int(MAX) - 1, 10**400, -(10**400), MAX, -MAX,
    math.nan, math.inf, -math.inf, "", "7", [], ["a"], [["a"]], [1], [None], {}, {"a": 1},
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
ANY_VALUE = st.one_of(st.sampled_from(EDGES), JSON_VALUES)
VALID = {
    Id: st.one_of(st.text(max_size=4), st.integers()),
    FiniteNumber: st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.integers(-int(MAX), int(MAX))),
    str: st.text(max_size=4),
    bool: st.booleans(),
    type(None): st.none(),
    list[str]: st.lists(st.text(max_size=3), max_size=3),
    object: ANY_VALUE,
}


def valid(kind):
    if isinstance(kind, UnionType):
        return st.one_of(*map(valid, kind.__args__))
    return VALID[kind]


def decoded(records):
    """The records as read_jsonl decodes them from their lines."""
    return [json.loads(json.dumps(rec)) for rec in records]


def check_accepts_all(block, spec):
    try:
        for rec in block:
            dataset.check(rec, spec, "record")
    except DatasetError:
        return False
    return True


class TestBlockCheck:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(SPECS)), st.data())
    def test_block_test_accepts_iff_check_accepts_every_record(self, name, data):
        spec = SPECS[name]
        records = data.draw(st.lists(
            st.fixed_dictionaries({key: valid(kind) for key, kind in spec.items()}),
            min_size=1, max_size=6))
        # up to two faults: a line that is not an object, a missing key or a
        # value of any kind
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(records) - 1))
            key = data.draw(st.sampled_from(sorted(spec)))
            fault = data.draw(st.sampled_from(["line", "missing", "value"]))
            if fault == "line":
                records[i] = data.draw(ANY_VALUE)
            elif isinstance(records[i], dict) and fault == "missing":
                records[i].pop(key, None)
            elif isinstance(records[i], dict):
                records[i][key] = data.draw(ANY_VALUE)
        block = decoded(records)
        assert dataset._check_block(block, spec) == check_accepts_all(block, spec)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_block_test_agrees_with_check_on_every_edge_value(self, name):
        spec, sample = SPECS[name], SAMPLES[name]
        assert dataset._check_block(decoded([sample]), spec)
        for value in EDGES:
            edited = [{**sample, key: value} for key in spec] + [value]
            for rec in edited:
                # a bad value may hide behind a good one in min and max
                for block in (decoded([rec, sample]), decoded([sample, rec, sample])):
                    assert dataset._check_block(block, spec) == check_accepts_all(block, spec), (
                        block)

    def test_check_and_block_test_agree_on_a_float_subclass(self):
        # json never decodes one, but a record and a block answer alike
        block, spec = [{"v": np.float64(1.0)}], {"v": FiniteNumber}
        assert not dataset._check_block(block, spec)
        assert not check_accepts_all(block, spec)


class TestFaultLocation:
    """Faults in a file of more than two blocks, its first line blank."""

    def _lines(self):
        n = 2 * dataset._BLOCK_LINES + 50
        rec = json.dumps(SAMPLES["timeseries"])
        return [""] + [rec] * n

    @pytest.mark.parametrize("faults, line_index, complaint", [
        # a type fault in block 2
        ({dataset._BLOCK_LINES + 7: '"value": true'},
         dataset._BLOCK_LINES + 7, "record 'value' must be a FiniteNumber, not true"),
        # a type fault above a syntax fault in the same block
        ({dataset._BLOCK_LINES + 10: '"value": NaN', dataset._BLOCK_LINES + 20: "{"},
         dataset._BLOCK_LINES + 10, "record 'value' must be a FiniteNumber, not NaN"),
        # a syntax fault above a type fault in the same block
        ({dataset._BLOCK_LINES + 10: "{", dataset._BLOCK_LINES + 20: '"value": NaN'},
         dataset._BLOCK_LINES + 10, "bad record: Expecting property name"),
        # a type fault in block 2 above a syntax fault in block 3
        ({dataset._BLOCK_LINES + 30: '"class_id": null', 2 * dataset._BLOCK_LINES + 5: "}"},
         dataset._BLOCK_LINES + 30, "record 'class_id' must be a Id, not null"),
        # a fault on the last line, in the short last block
        ({2 * dataset._BLOCK_LINES + 50: '"timestamp": 1e999'},
         2 * dataset._BLOCK_LINES + 50, "record 'timestamp' must be a FiniteNumber, not Infinity"),
    ], ids=["type-in-block-2", "type-above-syntax", "syntax-above-type",
            "type-above-syntax-in-next-block", "type-on-last-line"])
    def test_first_fault_in_file_order_names_its_line(self, tmp_path, faults, line_index,
                                                      complaint):
        lines = self._lines()
        for i, fault in faults.items():
            # a syntax fault replaces the line; a type fault replaces one key
            if fault.startswith('"'):
                key = fault.split('"')[1]
                lines[i] = re.sub(f'"{key}": [^,}}]*', fault, lines[i])
                assert fault in lines[i]
            else:
                lines[i] = fault
        path = tmp_path / "timeseries.jsonl"
        path.write_text("\n".join(lines) + "\n")
        yielded = 0
        with pytest.raises(RecordError,
                           match=re.escape(f"timeseries.jsonl:{line_index + 1}: {complaint}")):
            for _ in read_jsonl(path, RecordError, SPECS["timeseries"]):
                yielded += 1
        # every record above the fault was yielded first; line 1 is blank
        assert yielded == line_index - 1


@pytest.mark.parametrize("name, error", [("notes", DatasetError), ("timeseries", RecordError)])
@pytest.mark.parametrize("bad_line", [2, 300, 700], ids=["block-1", "block-2", "block-3"])
def test_non_utf8_line_names_file_and_line(tmp_path, name, error, bad_line):
    # line 2 is in block 1, line 300 in block 2 and line 700 in block 3; the
    # block's one UTF-8 decode fails and its lines are decoded one by one
    line = json.dumps(SAMPLES[name]).encode()
    lines = [line] * 800
    lines[bad_line - 1] = line.replace(b'"a"', b'"\xff"', 1)
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    yielded = 0
    with pytest.raises(error, match=re.escape(f"{name}.jsonl:{bad_line}: bad record: "
                                              "'utf-8' codec can't decode byte 0xff")):
        for _ in read_jsonl(path, error, SPECS[name]):
            yielded += 1
    # every record above the fault was yielded first
    assert yielded == bad_line - 1


@pytest.mark.parametrize("fault", [
    # where int parsing has a digit limit (sys.get_int_max_str_digits) the
    # decoder raises a plain ValueError; without one the value is out of range
    '{"admission_id": "a", "class_id": "hr", "timestamp": 0, "value": ' + "9" * 5000 + "}",
    # the decoder's recursion limit
    "[" * 100_000 + "]" * 100_000,
], ids=["integer-past-digit-limit", "nested-too-deep"])
def test_line_the_decoder_cannot_take_names_file_and_line(tmp_path, fault):
    lines = [json.dumps(SAMPLES["timeseries"]), fault, json.dumps(SAMPLES["timeseries"])]
    path = tmp_path / "timeseries.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordError, match=re.escape("timeseries.jsonl:2: ")):
        list(read_jsonl(path, RecordError, SPECS["timeseries"]))


def test_non_utf8_file_is_opened_once_as_bytes(tmp_path, monkeypatch):
    line = json.dumps(SAMPLES["notes"]).encode()
    path = tmp_path / "notes.jsonl"
    path.write_bytes(line + b"\n" + line.replace(b'"a"', b'"\xff"', 1) + b"\n")
    opened = []

    def recorded_open(file, mode="r", *args, **kwargs):
        opened.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(dataset, "open", recorded_open, raising=False)
    with pytest.raises(DatasetError, match=re.escape("notes.jsonl:2: bad record: 'utf-8'")):
        list(read_jsonl(path, DatasetError, SPECS["notes"]))
    assert opened == ["rb"]


def test_json_fault_above_non_utf8_line_in_its_block_is_reported_first(tmp_path):
    line = json.dumps(SAMPLES["notes"]).encode()
    lines = [line] * 20
    lines[4] = b"{"
    lines[9] = line.replace(b'"a"', b'"\xff"', 1)
    path = tmp_path / "notes.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DatasetError, match=re.escape("notes.jsonl:5: bad record: Expecting")):
        list(read_jsonl(path, DatasetError, SPECS["notes"]))


class TestLineEnds:
    """A line ends at \\n only, as in JSON Lines."""

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_crlf_gives_the_records_and_line_numbers_of_lf(self, tmp_path, end):
        records = [{"admission_id": i, "text": f"note {i}"}
                   for i in range(2 * dataset._BLOCK_LINES + 9)]
        lines = [json.dumps(rec) for rec in records]
        path = tmp_path / "notes.jsonl"
        path.write_bytes(end.join(lines + [""]).encode())
        assert list(read_jsonl(path, DatasetError, SPECS["notes"])) == records
        # a blank line, then a fault in block 2
        lines[3] = ""
        lines[dataset._BLOCK_LINES + 3] = '{"admission_id": 1}'
        path.write_bytes(end.join(lines + [""]).encode())
        yielded = []
        with pytest.raises(DatasetError, match=re.escape(
                f"notes.jsonl:{dataset._BLOCK_LINES + 4}: record has no 'text'")):
            yielded.extend(read_jsonl(path, DatasetError, SPECS["notes"]))
        assert yielded == records[:3] + records[4:dataset._BLOCK_LINES + 3]

    def test_lone_cr_is_not_a_line_end(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_bytes(b'{"admission_id": "a", "text": "x"}\r{"admission_id": "b", "text": "y"}\n')
        with pytest.raises(DatasetError, match=re.escape("notes.jsonl:1: bad record: Extra data")):
            list(read_jsonl(path, DatasetError, SPECS["notes"]))

    # str.splitlines would end a line at each of these
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_breaks_stay_inside_a_string(self, tmp_path, char):
        records = [{"admission_id": "a", "text": f"one{char}two"}, {"admission_id": "b", "text": "x"}]
        path = tmp_path / "notes.jsonl"
        # ensure_ascii=False writes the character raw, as a UTF-8 sequence
        path.write_bytes("".join(json.dumps(rec, ensure_ascii=False) + "\n"
                                 for rec in records).encode())
        assert char.encode() in path.read_bytes()
        assert list(read_jsonl(path, DatasetError, SPECS["notes"])) == records


    # JSON's whitespace, then characters str.strip would also take from a
    # line's edges
    @pytest.mark.parametrize("edge", [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f",
                                      "\x85", "\xa0", "\u2028", "\u3000"])
    def test_a_line_edge_holds_only_what_json_loads_accepts(self, tmp_path, edge):
        text = json.dumps(SAMPLES["notes"])
        path = tmp_path / "notes.jsonl"
        for line in (edge + text, text + edge):
            path.write_bytes((line + "\n").encode())
            if edge in " \t\r":
                assert list(read_jsonl(path, DatasetError, SPECS["notes"])) == [json.loads(line)]
            else:
                with pytest.raises(ValueError):
                    json.loads(line)
                with pytest.raises(DatasetError, match=re.escape("notes.jsonl:1: bad record: ")):
                    list(read_jsonl(path, DatasetError, SPECS["notes"]))

    def test_unicode_space_at_an_edge_names_its_line_in_block_2(self, tmp_path):
        good = json.dumps(SAMPLES["notes"])
        lines = [good] * (dataset._BLOCK_LINES + 9)
        lines[dataset._BLOCK_LINES + 4] = " \x1c" + good + "\x85"
        # JSON whitespace around a record, on a CRLF line
        lines[2] = "\t" + good + " "
        path = tmp_path / "notes.jsonl"
        path.write_bytes("\r\n".join(lines + [""]).encode())
        yielded = []
        with pytest.raises(DatasetError, match=re.escape(
                f"notes.jsonl:{dataset._BLOCK_LINES + 5}: bad record: Expecting value")):
            yielded.extend(read_jsonl(path, DatasetError, SPECS["notes"]))
        assert yielded == [SAMPLES["notes"]] * (dataset._BLOCK_LINES + 4)


def test_reading_holds_one_block_of_records_at_a_time(tmp_path):
    # an 8-block file peaks no higher than a 1-block file plus one block of
    # decoded records
    line = json.dumps({"admission_id": "a", "text": "word " * 20})

    def peak(blocks):
        path = tmp_path / f"notes-{blocks}.jsonl"
        path.write_text((line + "\n") * (blocks * dataset._BLOCK_LINES))
        tracemalloc.start()
        try:
            for _ in read_jsonl(path, DatasetError, SPECS["notes"]):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracemalloc.start()
    try:
        block = [json.loads(line) for _ in range(dataset._BLOCK_LINES)]
        one_block = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(block) == dataset._BLOCK_LINES
    assert peak(8) <= peak(1) + one_block
