"""Strict reading of JSON input that the program did not write itself.

Each value a reader uses is checked for its JSON kind before use, so a
malformed file or config fails as one ValueError (CLI exit 2) that names
the file, line and key, instead of escaping later as a KeyError or
TypeError.

A config dataclass declares each numeric field's range with :func:`ranged`,
and its ``__post_init__`` calls :func:`check_ranges`.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import field, fields
from math import inf
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .geometry import IMAGE_SIZE_RANGE

T = TypeVar("T")

_KINDS = {
    float: "a number",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def expect(value: Any, kind: type, where: str, error: type[ValueError] = ValueError) -> Any:
    """``value`` if it is a JSON ``kind``, else ``error`` naming ``where``.

    A number may be an integer or a float; a boolean is never a number.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and not isinstance(value, bool):
        return value
    raise error(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}")


def finite(value: float, where: str) -> float:
    """``value`` if it is finite, else a ValueError naming ``where``; JSON
    reads NaN and Infinity, and an integer past the float range is not."""
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where}: must be finite, got {value}")
    return value


def positive(value: float, where: str) -> float:
    """``value`` if it is finite and > 0, else a ValueError naming ``where``."""
    if not finite(value, where) > 0:
        raise ValueError(f"{where}: must be > 0, got {value}")
    return value


def image_size(value: float, where: str) -> float:
    """``value`` if it is in ``IMAGE_SIZE_RANGE``, else a ValueError naming ``where``."""
    lo, hi = IMAGE_SIZE_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"{where}: must be in [{lo}, {hi}], got {value}")
    return value


def ranged(default: Any, lo: float, hi: float = inf) -> Any:
    """A dataclass field with ``default`` whose value must be finite and in
    [lo, hi], or None where ``default`` is None; see :func:`check_ranges`."""
    return field(default=default, metadata={"range": (lo, hi)})


@functools.cache
def _ranges(cls: type) -> tuple[tuple[str, float, float, Any], ...]:
    """(name, lo, hi, default) of each :func:`ranged` field of ``cls``, in order."""
    return tuple(
        (f.name, *f.metadata["range"], f.default) for f in fields(cls) if "range" in f.metadata
    )


def check_ranges(config: Any, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` for the first :func:`ranged` field of the dataclass
    ``config`` that is out of its range.  An int of any size compares
    exactly, where ``math.isfinite`` would overflow; NaN fails."""
    for name, lo, hi, default in _ranges(type(config)):
        value = getattr(config, name)
        if not (default is None if value is None else lo <= value <= hi and -inf < value < inf):
            rule = (
                f"in [{lo}, {hi}]" if hi < inf
                else "finite" if lo == -inf
                else f"finite and >= {lo}" if isinstance(default, float)
                else f"None or >= {lo}" if default is None
                else f">= {lo}"
            )
            raise error(f"{name} must be {rule}, got {value}")


# A Box's (x, y, w, h): a finite center and positive extents.
BOX = (finite, finite, positive, positive)


def check(value: Any, schema: Any, where: str = "row") -> Any:
    """``value`` checked against ``schema`` and returned unchanged.

    A schema is a JSON kind (see :func:`expect`), a rule for a number
    (:func:`finite`, :func:`positive`, :func:`image_size`), ``[item]`` for a
    list of items, a tuple of schemas for a list of exactly that many items,
    or ``{key: schema}`` for an object that has at least those keys.
    """
    if isinstance(schema, dict):
        expect(value, dict, where)
        for key, sub in schema.items():
            if key not in value:
                raise ValueError(f"{where}.{key}: missing")
            check(value[key], sub, f"{where}.{key}")
    elif isinstance(schema, list):
        for k, item in enumerate(expect(value, list, where)):
            check(item, schema[0], f"{where}[{k}]")
    elif isinstance(schema, tuple):
        if len(expect(value, list, where)) != len(schema):
            raise ValueError(f"{where}: expected {len(schema)} items, got {len(value)}")
        for k, (item, sub) in enumerate(zip(value, schema)):
            check(item, sub, f"{where}[{k}]")
    elif isinstance(schema, type):
        expect(value, schema, where)
    else:
        schema(expect(value, float, where), where)
    return value


def read_jsonl(path: str | Path, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` applied to each non-blank line of a JSON-lines file.

    A file that is not UTF-8 comes out as a ValueError that starts with
    ``<path>:``; malformed JSON, and any ValueError that ``parse`` raises,
    with ``<path>:<line>:``.
    """
    try:
        text = Path(path).read_text()
    except ValueError as exc:  # not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse(json.loads(line)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def by_page_id(source: str | Path, rows: Iterable[T], page_id: Callable[[T], str]) -> dict[str, T]:
    """``rows`` keyed by ``page_id(row)``; an id on two rows is a ValueError."""
    out: dict[str, T] = {}
    for row in rows:
        key = page_id(row)
        if key in out:
            raise ValueError(f"{source}: page_id {key!r} appears more than once")
        out[key] = row
    return out
