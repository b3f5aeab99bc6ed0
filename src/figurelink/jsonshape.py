"""Shape checks for JSON inputs: a document or JSONL line that parses but
has the wrong structure raises MalformedJson, naming where it is, instead of
a TypeError from deep inside the command that reads it."""

from __future__ import annotations

NUMBER = (int, float)
STRING_OR_NULL = (str, type(None))
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", NUMBER: "a number",
               STRING_OR_NULL: "a string or null"}


class MalformedJson(ValueError):
    pass


def need(value, kind: type, where: str):
    """value, if it is a `kind` (dict, list, str, NUMBER or STRING_OR_NULL);
    else MalformedJson."""
    if not isinstance(value, kind):
        raise MalformedJson(
            f"{where} must be {_JSON_NAMES[kind]}, got {type(value).__name__}")
    return value


def need_field(obj: dict, key, kind: type, where: str):
    """obj[key], if obj has key and its value is a `kind`; else MalformedJson
    naming where + key."""
    if key not in obj:
        raise MalformedJson(f"{where}{key} is missing")
    return need(obj[key], kind, f"{where}{key}")


def need_list(value, kind: type, where: str) -> list:
    """value, if it is a list whose items are all `kind`; else MalformedJson."""
    for i, item in enumerate(need(value, list, where)):
        if not isinstance(item, kind):
            need(item, kind, f"{where}[{i}]")
    return value

