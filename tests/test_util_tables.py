"""Tests for repro.util.tables and repro.util.serialization."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.util.serialization import canonical_json, dump_json, load_json, to_jsonable
from repro.util.tables import format_kv, format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.50" in text
        assert len(lines) == 4  # header, separator, two rows

    def test_title_included(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_precision(self):
        text = format_table(["x"], [[1.23456]], precision=4)
        assert "1.2346" in text

    def test_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_string_cells(self):
        text = format_table(["name", "value"], [["alpha", 1]])
        assert "alpha" in text


class TestFormatKv:
    def test_alignment(self):
        text = format_kv({"a": 1, "long_key": 2.5})
        lines = text.splitlines()
        assert all(" : " in line for line in lines)

    def test_title(self):
        text = format_kv({"a": 1}, title="Header")
        assert text.splitlines()[0] == "Header"

    def test_empty(self):
        assert format_kv({}) == ""


@dataclasses.dataclass
class _Sample:
    name: str
    values: np.ndarray


class TestSerialization:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_array(self):
        assert to_jsonable(np.array([1, 2, 3])) == [1, 2, 3]

    def test_dataclass(self):
        obj = _Sample(name="x", values=np.array([1.0, 2.0]))
        assert to_jsonable(obj) == {"name": "x", "values": [1.0, 2.0]}

    def test_nested_containers(self):
        out = to_jsonable({"a": (1, 2), "b": {np.int32(3)}})
        assert out["a"] == [1, 2]
        assert out["b"] == [3]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_dump_and_load_roundtrip(self, tmp_path: Path):
        payload = {"x": np.arange(3), "y": {"z": np.float64(1.5)}}
        path = dump_json(payload, tmp_path / "out" / "result.json")
        assert path.exists()
        loaded = load_json(path)
        assert loaded == {"x": [0, 1, 2], "y": {"z": 1.5}}

    def test_canonical_json_is_json_dumps_sorted_and_compact(self):
        # One shared encoder stands in for a json.dumps call per value;
        # every digest in the repo depends on the bytes staying the same.
        values = [
            {"b": [1, {"d": None, "c": True}], "a": {"z": [], "y": {}}},
            ["naïve", "日本", "\u00e9\n\t\"", ""],
            [0, -7, 2**70, 0.1, -2.5e-300, 1e300, 1.0],
            [math.nan, math.inf, -math.inf],
            {"x": [[[1.5]]], "10": 1, "9": 2},
            "plain",
            3,
        ]
        for value in values:
            expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
            assert canonical_json(value) == expected
