"""Exception taxonomy shared across the package, and the check of config values.

ConfigError maps to CLI exit code 2, everything else to exit code 1.
"""

import json
import math


class ConfigError(ValueError):
    """Invalid configuration or usage: bad key, bad value, missing setting."""


class DataError(ValueError):
    """Malformed or inconsistent data (parse/format/ingest failures)."""


class SchemaError(DataError):
    """Data does not match the expected schema (wrong columns, dims, counts)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", dict: "an object"}


def refusal(values: dict, bounds: dict, like: dict | None = None) -> str | None:
    """Why the first refused value is refused ("'key' must ..., got v"), or
    None, for each caller to raise as its own error type. A float must be
    finite and a value its key's bound (key -> (allowed, what the key must
    be)) allows. With like (key -> a value of the key's JSON type), it must
    have that type: an int stands for a float, a bool is never a number. A
    dict's values are each held to these, like's by its first value. Library
    configs pass no like: their callers may hand numpy scalars."""
    for key, value in values.items():
        want = None if like is None else like[key]
        entries = ((None, value),)
        if isinstance(value, dict) and (want is None or isinstance(want, dict)):
            entries, want = value.items(), want and next(iter(want.values()))
        for entry, x in entries:
            if want is not None and type(x) is not type(want) and \
                    not (type(want) is float and type(x) is int):
                why = f"be {_JSON_TYPES[type(want)]}"
            elif isinstance(x, float) and not math.isfinite(x):
                why = "be finite"
            elif key in bounds and not bounds[key][0](x):
                why = bounds[key][1]
            else:
                continue
            entry = "" if entry is None else f" entry '{entry}'"
            return f"'{key}'{entry} must {why}, got {_shown(x)}"
    return None


def _shown(x) -> str:
    return json.dumps(x, default=lambda o: o.item())   # numpy scalars too
