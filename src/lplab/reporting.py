"""Deterministic report serialization.

Reports are meant to be byte-identical across reruns and across worker
counts, so everything here is order-stable: JSON keys are sorted, floats are
rendered with 17 significant digits (round-trip exact for binary64), CSV rows
use a fixed line terminator, and no timestamps or host information are ever
embedded.
"""

from __future__ import annotations

import csv
import json
import math


def format_float(x: float) -> str:
    """Render a float with 17 significant digits; parses back to the same bits."""
    return format(float(x), ".17g")


_escape = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """format_float of an exact float, which must be finite."""
    if not math.isfinite(value):
        raise ValueError("non-finite float in report payload; map to None before encoding")
    return format(value, ".17g")


# The JSON text of each exact scalar type; subclasses such as numpy's float64
# take the isinstance checks of _subclass_text, in json's order.
_SCALAR_TEXT = {
    str: _escape,
    float: _float_text,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _subclass_text(value) -> str:
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(float(value))
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as JSON text: keys must be str, int, float, bool or None."""
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, float):
        return _escape(_float_text(float(key)))
    if key is True or key is False or key is None:
        return '"' + _SCALAR_TEXT[type(key)](key) + '"'
    if isinstance(key, int):
        return _escape(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value, newline: str, parts: list) -> None:
    """Append the JSON text of ``value`` to ``parts``.

    ``newline`` is the line break plus the indent of the line ``value``
    starts on.  Scalar members of a container are written in its loop, so
    only containers recurse.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        parts.append(text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                parts.append(separator + text(item))
            else:
                parts.append(separator)
                _write(item, inner, parts)
            separator = comma
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            head = separator + (_escape(key) if type(key) is str else _key_text(key)) + ": "
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                parts.append(head + text(item))
            else:
                parts.append(head)
                _write(item, inner, parts)
            separator = comma
        parts.append(newline + "}")
    else:
        parts.append(_subclass_text(value))


def canonical_json(payload) -> str:
    """Sorted-key JSON text with 17-digit floats and a trailing newline.

    The text is json.dumps(payload, sort_keys=True, indent=2) with every
    float rendered by format_float, written in one recursive pass.  A
    non-finite float raises ValueError: callers map it to None first.
    """
    parts: list[str] = []
    _write(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


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
