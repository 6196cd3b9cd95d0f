"""Flat key/value config text: ``key = value`` or ``key: value`` lines.

Values may be scalars, quoted or bare strings, bracketed lists
``[a, b, c]``, or MATLAB-style ranges ``start:step:stop`` (stop inclusive
up to rounding) of at most 10^6 values.  ``#`` starts a comment.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import ParameterError

__all__ = ["parse_value", "parse_kv_text", "load_kv_file"]

# The most values a range may hold: a larger one is almost surely a typo,
# and one of 10^10 values would ask for hundreds of GB.
_MAX_RANGE_VALUES = 10**6

_RANGE_RE = re.compile(
    r"^\s*([-+0-9.eE]+)\s*:\s*([-+0-9.eE]+)\s*:\s*([-+0-9.eE]+)\s*$"
)


def _scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.startswith(("'", '"')) and text.endswith(("'", '"')) and len(text) >= 2:
        return text[1:-1]
    return text


def parse_value(text: str):
    """Parse a config value: scalar, string, list, or start:step:stop range."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_scalar(p) for p in re.split(r"[,\s]+", inner) if p]
    m = _RANGE_RE.match(text)
    if m:
        start, step, stop = (float(g) for g in m.groups())
        if not np.all(np.isfinite((start, step, stop))):
            raise ParameterError(f"non-finite bound in range {text!r}")
        if step == 0:
            raise ParameterError(f"zero step in range {text!r}")
        # a float, which may overflow to inf, checked before int() and arange
        count = np.floor((stop - start) / step + 1e-9) + 1
        if count < 1:
            raise ParameterError(f"empty range {text!r}")
        if not count <= _MAX_RANGE_VALUES:  # NaN fails too
            raise ParameterError(
                f"range {text!r} holds more than {_MAX_RANGE_VALUES} values"
            )
        return list(start + step * np.arange(int(count)))
    return _scalar(text)


def parse_kv_text(text: str) -> dict:
    """Parse ``key = value`` / ``key: value`` lines into a dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and (":" not in line or line.index("=") < line.index(":")):
            key, _, value = line.partition("=")
        elif ":" in line:
            key, _, value = line.partition(":")
        else:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if not key:
            raise ParameterError(f"line {lineno}: empty key")
        out[key] = parse_value(value)
    return out


def load_kv_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read())
