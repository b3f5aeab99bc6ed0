"""Shape checks for JSON inputs: a document or JSONL line that parses but
has the wrong structure raises MalformedJson, naming where it is, instead of
a TypeError from deep inside the command that reads it."""

from __future__ import annotations

import json

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string"}


class MalformedJson(ValueError):
    pass


def need(value, kind: type, where: str):
    """value, if it is a `kind` (dict, list or str); else MalformedJson."""
    if not isinstance(value, kind):
        raise MalformedJson(
            f"{where} must be {_JSON_NAMES[kind]}, got {type(value).__name__}")
    return value


def need_list(value, kind: type, where: str) -> list:
    """value, if it is a list whose items are all `kind`; else MalformedJson."""
    for i, item in enumerate(need(value, list, where)):
        need(item, kind, f"{where}[{i}]")
    return value


def read_jsonl(path):
    """Yield ("path:line", object) for each non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path}:{lineno}"
                yield where, need(json.loads(line), dict, where)
