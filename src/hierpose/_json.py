"""Checked reading of the JSON documents the library takes as input.

`read` checks a parsed value against a spec of its shape and JSON types.  It
converts nothing, except that a JSON integer becomes a float where a number
is wanted, and it rejects ±inf (1e400, or an integer too long for `int`, which
`load` reads as ±inf) and, where a number is wanted, an integer too large for a float.
A spec is `int`, `float`, `bool`, `str` or `object` (any value);
`[spec]`, a list, or `(spec, ...)`, a list of exactly that many entries;
`{key: spec}`, an object with exactly these keys, where an `Optional` one may
be absent; `Map(spec)`, an object with any keys; `Nullable(spec)`; or
`Either(spec, ...)`, the first spec the value's JSON type fits (the last one
reports a value that fits none).  A bad value raises the caller's error type
naming it: `"<where> 'key'"` for a scalar or list field, `"<where> i"` for a
list entry and `"<where>.<key>"` for a nested object.
"""

from __future__ import annotations

import json
import sys

_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string",
               list: "list", dict: "object"}


class _Wrapper:
    def __init__(self, *specs):
        self.spec, self.specs = specs[0], specs


class Map(_Wrapper):
    """An object with any keys, each value read by `spec`."""


class Nullable(_Wrapper):
    """`spec`, or null."""


class Optional(_Wrapper):
    """The spec of an object key that may be absent."""


class Either(_Wrapper):
    """The first of `specs` whose JSON type the value has."""


NUMBER = Either(int, float)  # a JSON number, kept as written


def load(text: str, spec, where: str, error):
    """`read` of the JSON document `text`; Python's NaN and ±Infinity tokens are rejected."""

    def reject(name):
        raise error(f"{where} holds {name}, which is not a JSON number")

    def integer(digits):
        try:
            return int(digits)
        except ValueError:  # more digits than `sys.get_int_max_str_digits()`
            return float(digits)

    try:
        value = json.loads(text, parse_constant=reject, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not valid JSON: {exc}") from None
    return read(value, spec, where, error)


def _json_type(spec):
    while isinstance(spec, (Optional, Nullable)):
        spec = spec.spec
    if isinstance(spec, (dict, Map)):
        return dict
    return list if isinstance(spec, (list, tuple)) else spec


def _fits(spec, value) -> bool:
    kind = _json_type(spec)
    if kind in (int, float) and isinstance(value, bool):
        return False
    return kind is object or isinstance(value, (int, float) if kind is float else kind)


def _pick(spec, value):
    spec = spec.spec if isinstance(spec, Optional) else spec
    if isinstance(spec, Either):
        return next((s for s in spec.specs if _fits(s, value)), spec.specs[-1])
    return spec


def _read_field(value: dict, key: str, spec, where: str, error):
    nested = _json_type(_pick(spec, value[key])) is dict
    return read(value[key], spec, f"{where}.{key}" if nested else f"{where} {key!r}", error)


def read(value, spec, where: str, error):
    """`value` checked against `spec`; raises `error` naming `where`."""
    wanted, spec = spec, _pick(spec, value)
    if isinstance(spec, Nullable):
        return None if value is None else read(value, spec.spec, where, error)
    kind = _json_type(spec)
    if not _fits(spec, value) or isinstance(spec, tuple) and len(value) != len(spec):
        want = _TYPE_NAMES[kind] + (f" of {len(spec)}" if isinstance(spec, tuple) else "")
        raise error(f"{where} must be a JSON {want}, got {json.dumps(value, default=repr)}")
    if kind is list:
        # all-`float` or all-`int` entries are checked in one pass (the exact type
        # test excludes bool); the per-entry path below names a failure
        plain = spec if isinstance(spec, tuple) else spec[:1]
        if all(s is float for s in plain):
            if all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value):
                return [float(v) for v in value]
        elif all(s is int for s in plain) and all(type(v) is int for v in value):
            return list(value)
        specs = spec if isinstance(spec, tuple) else spec * len(value)
        return [read(v, s, f"{where} {i}", error) for i, (v, s) in enumerate(zip(value, specs))]
    if isinstance(spec, Map):
        return {key: _read_field(value, key, spec.spec, where, error) for key in value}
    if kind is not dict:
        if type(value) in (int, float) and not abs(value) <= sys.float_info.max:
            if isinstance(value, float) or _pick(wanted, 0.0) is float:  # ±inf, or a number wanted
                got = value if isinstance(value, float) else "an integer too large for a float"
                raise error(f"{where} must be a finite number, got {got}")
        return float(value) if kind is float else value
    unknown = set(value) - set(spec)
    if unknown:
        raise error(f"unknown {where} keys: {sorted(unknown)}")
    missing = [key for key, s in spec.items() if key not in value and not isinstance(s, Optional)]
    if missing:
        raise error(f"{where} missing keys: {sorted(missing)}")
    return {key: _read_field(value, key, s, where, error) for key, s in spec.items() if key in value}
