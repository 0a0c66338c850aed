"""Deterministic report serialization.

Reports are meant to be byte-identical across reruns and across worker
counts, so everything here is order-stable: JSON keys are sorted, floats are
rendered with 17 significant digits (round-trip exact for binary64), CSV rows
use a fixed line terminator, and no timestamps or host information are ever
embedded.  The JSON text comes from json's own pure-Python encoder; only its
float rendering is replaced.
"""

from __future__ import annotations

import csv
import json
import math


def format_float(x: float) -> str:
    """Render a float with 17 significant digits; parses back to the same bits."""
    return format(float(x), ".17g")


class _CanonicalEncoder(json.JSONEncoder):
    """json's pure-Python encoder with format_float for floats.

    It is the encoder json.dumps uses whenever ``indent`` is set; only its
    float text changes.  A non-finite float raises ValueError.
    """

    def iterencode(self, o, _one_shot=False):
        def floatstr(value):
            if not math.isfinite(value):
                raise ValueError("non-finite float in report payload; map to None before encoding")
            return format_float(value)

        markers = {} if self.check_circular else None
        return json.encoder._make_iterencode(
            markers, self.default, json.encoder.encode_basestring_ascii, self.indent,
            floatstr, self.key_separator, self.item_separator, self.sort_keys,
            self.skipkeys, _one_shot=False,
        )(o, 0)


def canonical_json(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) with every float
    rendered by format_float, plus a trailing newline.  A non-finite float
    raises ValueError: callers map it to None first."""
    return json.dumps(payload, cls=_CanonicalEncoder, sort_keys=True, indent=2) + "\n"


def sanitize(value):
    """Recursively convert numpy scalars and non-finite floats for JSON output."""
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return sanitize(value.item())
    return value


def write_samples_csv(samples, path) -> None:
    """Per-sample CSV with columns sample_id, rank, lhs, rhs, ratio.

    ``samples`` is an iterable of objects with those attributes; a
    non-finite ratio (degenerate sample) is written as an empty field.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["sample_id", "rank", "lhs", "rhs", "ratio"])
        for s in samples:
            ratio = format_float(s.ratio) if math.isfinite(s.ratio) else ""
            writer.writerow(
                [s.sample_id, s.rank, format_float(s.lhs), format_float(s.rhs), ratio]
            )
