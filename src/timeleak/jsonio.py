"""Canonical JSON for artifact writers, and for their readers the one type
rule: a bool is no integer, and a number is finite."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np


class FieldError(ValueError):
    """A JSON field that is missing, of the wrong type or out of range. The
    message starts with the field's path, such as `classes[3].count`."""


_MISSING = object()
_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}
_NAMES.update({list: "a list", dict: "an object", type(None): "null"})


def get(obj, key, *types, lo=None, hi=None, where: str = "", default=_MISSING):
    """`obj[key]` from the JSON object (str key) or list (int key) at path
    `where`, as one of `types` (any type if none): a bool is no int or float,
    and `float` takes an int as a float but no NaN or infinity. `lo` and `hi`
    bound a number inclusively; a missing key gives `default` if one is
    given. Anything else raises `FieldError` naming the path."""
    container = list if type(key) is int else dict
    path = f"{where}[{key}]" if container is list else f"{where}.{key}" if where else key
    if type(obj) is not container:
        raise FieldError(f"{where} must be {_NAMES[container]}, got {obj!r:.40}".lstrip())
    if key in obj if container is dict else 0 <= key < len(obj):
        value = obj[key]
    elif default is not _MISSING:
        return default
    else:
        raise FieldError(f"{path} is missing")
    if type(value) is int and float in types and int not in types:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    kind = type(value)
    ok = kind in types and not (kind is float and not math.isfinite(value))
    if ok and kind in (int, float):
        ok = (lo is None or value >= lo) and (hi is None or value <= hi)
    if types and not ok:
        bounds = " and".join(f" {op} {b}" for op, b in ((">=", lo), ("<=", hi)) if b is not None)
        names = [_NAMES[t] + (bounds if t in (int, float) else "") for t in types]
        raise FieldError(f"{path} must be {' or '.join(names)}, got {obj[key]!r:.40}")
    return value


def numbers(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """`value` as a float64 array if it is JSON numbers (not bools) nested in
    lists of exactly `shape`, else None. Finiteness is the caller's check."""
    arr = np.array(value, dtype=object)
    if arr.shape != shape or not set(map(type, arr.flat)) <= {int, float}:
        return None
    try:
        return arr.astype(np.float64)
    except OverflowError:  # an integer beyond float64
        return None


def canonical_dumps(obj) -> str:
    """Sorted, indented JSON; NaN and infinities raise ValueError, since they
    are not JSON and mark a broken result."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def sha256_hex(data) -> str:
    import hashlib  # loads OpenSSL, which only hashing needs

    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def hash_file(path) -> str:
    return sha256_hex(Path(path).read_bytes())


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def read_json(path):
    """The JSON document in `path`; a `FieldError` naming the file if it
    cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise FieldError(f"cannot read JSON file {path}: {getattr(exc, 'strerror', None) or exc}") from None
