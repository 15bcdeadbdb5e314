"""Canonical JSON serialization and hashing shared by artifact writers."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def canonical_dumps(obj) -> str:
    """Sorted, indented JSON; NaN and infinities raise ValueError, since they
    are not JSON and mark a broken result."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def hash_file(path) -> str:
    return sha256_hex(Path(path).read_bytes())


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
