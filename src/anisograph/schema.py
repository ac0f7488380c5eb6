"""Parsers shared by the scenario's sections, and the error of a malformed scenario.

Each section is a table from key to parser.  A parser takes the JSON value and
the graph dimension ``n``, and returns the parsed value or raises ValueError.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from functools import partial

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """Malformed scenario or sweep configuration."""


def _real(value, n=None, low=-math.inf, strict=False, integer=False) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # NaN, infinities, ints beyond a float
            or value < low or (strict and value == low) or (integer and value != int(value))):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ValueError(f"must be a finite {'integer' if integer else 'number'}{bound}, "
                         f"got {value!r}")
    return int(value) if integer else float(value)


_positive = partial(_real, low=0.0, strict=True)
_integer = partial(_real, integer=True)


def _list(value, n, item=_real, length=None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ValueError(f"must be a list{f' of {length}' if length else ''}, got {value!r}")
    return [item(v, n) for v in value]


def _point(value, n: int) -> list[float]:
    return _list(value, n, length=n)


def _any(value, n=None):
    return value


def _instance(value, n=None, *, of):
    if not isinstance(value, of):
        raise ValueError(f"must be a {of.__name__}, got {value!r}")
    return value


@contextmanager
def _named(prefix: str):
    """Re-raise a ValueError from the block as a ConfigError that starts with ``prefix``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix} {exc}") from exc


def _variant(raw, tag: str, variants: dict, where: str):
    """The name and the entry of ``variants`` that the ``tag`` key of a section selects."""
    name = raw.get(tag) if isinstance(raw, dict) else None
    if not isinstance(name, str) or name not in variants:
        raise ConfigError(f"{where}: {tag!r} must be one of {', '.join(variants)}; got {raw!r}")
    return name, variants[name]


def _section(raw, table: dict, where: str, n=None, required=(), make=dict):
    """``make(**values)`` of a section's values, each parsed by its key's entry in ``table``
    given ``n``.  A null value leaves the key's default.  An unknown key, a missing
    ``required`` key, a bad value or a ValueError from ``make`` is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    values = {}
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r}; use one of {', '.join(table)}")
        if value is not None:
            with _named(f"{where}: {key!r}"):
                values[key] = table[key](value, n)
    for key in required:
        if key not in values:
            raise ConfigError(f"{where}: {key!r} is required")
    with _named(f"{where}:"):
        return make(**values)
