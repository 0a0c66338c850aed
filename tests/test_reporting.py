"""Canonical serialization: stable floats, sorted keys, sanitized payloads."""

import csv
import json
import math

import numpy as np
import pytest

from lplab import CheckSample, canonical_json, format_float
from lplab.reporting import sanitize, write_samples_csv


class TestFloatFormatting:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(90)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, size=200):
            text = format_float(float(x))
            assert float(text) == float(x), text

    def test_known_renderings(self):
        assert format_float(0.5) == "0.5"
        assert format_float(1.0) == "1"
        assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_float_precision_preserved(self):
        x = 0.1 + 0.2
        parsed = json.loads(canonical_json({"x": x}))
        assert parsed["x"] == x

    def test_identical_across_calls(self):
        payload = {"values": [1.0 / 7.0, 2.0 / 3.0], "nested": {"k": 1e-300}}
        assert canonical_json(payload) == canonical_json(payload)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"x": math.inf})
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"x": math.nan})

    def test_file_round_trip(self, tmp_path):
        payload = {"a": [1, 2.5, None], "b": {"c": True}}
        path = tmp_path / "payload.json"
        path.write_text(canonical_json(payload))
        assert json.loads(path.read_text()) == payload


class TestSanitize:
    def test_non_finite_to_none(self):
        out = sanitize({"good": 1.5, "bad": math.inf, "worse": math.nan})
        assert out == {"good": 1.5, "bad": None, "worse": None}

    def test_numpy_scalars_unwrapped(self):
        # np.float64 already is a float subclass, so it may pass through; the
        # contract is that everything equals its python value and encodes.
        out = sanitize({"a": np.float64(2.5), "b": np.int64(3), "c": np.bool_(True)})
        assert out == {"a": 2.5, "b": 3, "c": True}
        assert type(out["b"]) is int
        assert '"a": 2.5' in canonical_json(out)
        assert sanitize(np.float64(np.inf)) is None

    def test_nested_containers(self):
        out = sanitize([(np.float64(1.0), {"x": np.inf})])
        assert out == [[1.0, {"x": None}]]

    def test_sanitized_payload_encodes(self):
        payload = sanitize({"ratio": math.inf, "value": np.float64(0.25)})
        assert '"ratio": null' in canonical_json(payload)


class TestSamplesCsv:
    def samples(self):
        return [
            CheckSample(0, 1, 1.5, 3.0, 0.5),
            CheckSample(1, 4, 0.0, 0.0, math.inf, degenerate=True),
        ]

    def test_rows_and_empty_ratio(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(self.samples(), path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id", "rank", "lhs", "rhs", "ratio"]
        assert rows[1] == ["0", "1", "1.5", "3", "0.5"]
        assert rows[2][4] == ""

    def test_fixed_line_terminator(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(self.samples(), path)
        data = path.read_bytes()
        assert b"\r" not in data
