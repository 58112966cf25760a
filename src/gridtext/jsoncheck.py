"""Strict reading of JSON input that the program did not write itself.

Each value a reader uses is checked for its JSON kind before use, so a
malformed file or config fails as one ValueError (CLI exit 2) that names
the file, line and key, instead of escaping later as a KeyError or
TypeError.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

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


def check(value: Any, schema: Any, where: str = "row") -> Any:
    """``value`` checked against ``schema`` and returned unchanged.

    A schema is a JSON kind (see :func:`expect`), ``[item]`` for a list of
    items, a tuple of schemas for a list of exactly that many items, or
    ``{key: schema}`` for an object that has at least those keys.
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
    else:
        expect(value, schema, where)
    return value


def read_jsonl(path: str | Path, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` applied to each non-blank line of a JSON-lines file.

    Malformed JSON, and any ValueError that ``parse`` raises, comes out as a
    ValueError that starts with ``<path>:<line>:``.
    """
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
