"""The rules every JSON input is read by: the scene, the scenario, the
parameter set and the --config file.

A document is UTF-8 text holding one JSON object. A number is a finite
JSON int or float, never a boolean, a string, NaN or Infinity; a point
is a list of two numbers. A rule raises its caller's error class with a
message that starts with the field it read.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path
from typing import Collection, Iterator

from .geometry import Vec2


@contextlib.contextmanager
def document(path: str | Path, error: type[Exception], keys: Collection[str] | None = None) -> Iterator[dict]:
    """The object in the JSON file at `path`, with no key outside `keys`
    when given. An `error` raised in the block gets the path in front."""
    try:
        try:
            raw = json.loads(Path(path).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise error(f"not UTF-8 text (byte {exc.start})") from None
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or an int too long to read
            raise error(f"not valid JSON ({exc})") from None
        yield fields(raw, keys, error)
    except error as exc:
        raise error(f"{path}: {exc}") from None


def fields(value: object, keys: Collection[str] | None, error: type[Exception], field: str = "") -> dict:
    """`value`, which must be an object with no key outside `keys` when given."""
    where = f"{field}: " if field else ""
    if not isinstance(value, dict):
        raise error(f"{where}expected an object")
    unknown = set() if keys is None else set(value) - set(keys)
    if unknown:
        raise error(f"{where}unknown keys {sorted(unknown)}")
    return value


def number(value: object, field: str, error: type[Exception]) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{field}: expected a number, got {json.dumps(value)}")
    try:
        out = float(value)
    except OverflowError:
        raise error(f"{field}: number out of range") from None
    if not math.isfinite(out):
        raise error(f"{field}: expected a finite number, got {json.dumps(value)}")
    return out


def whole(value: object, field: str, error: type[Exception]) -> int:
    if not number(value, field, error).is_integer():
        raise error(f"{field}: expected a whole number, got {json.dumps(value)}")
    return int(value)


def point(value: object, field: str, error: type[Exception]) -> Vec2:
    if not (isinstance(value, list) and len(value) == 2):
        raise error(f"{field}: expected [x, y], got {json.dumps(value)}")
    return Vec2(number(value[0], field, error), number(value[1], field, error))
