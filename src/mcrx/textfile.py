"""UTF-8 text files and JSON-lines records for the index, corpus and action
files. It imports only errors, so reading such a file loads no index code."""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable, Iterator

from .errors import IndexFormatError


def read_utf8_text(path: str | os.PathLike[str]) -> str:
    """A file's text; IndexFormatError names the line of a non-UTF-8 byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IndexFormatError(f"not UTF-8 text ({exc.reason})", line) from exc


def read_utf8(path: str | os.PathLike[str]) -> str:
    """A file's text; OSError names the file and line of a non-UTF-8 byte."""
    try:
        return read_utf8_text(path)
    except IndexFormatError as exc:
        raise OSError(f"{path}: {exc}") from exc


def write_lines_atomic(path: str, lines: Iterable[str]) -> None:
    """Replace a file's content with lines as UTF-8, all or nothing.

    Each line is written as given, its line break included, as soon as it
    is produced, so no whole-file text is held. The lines go to a temporary
    file beside the target, and os.replace then moves it onto the target.
    If anything fails on the way, the temporary file is removed and the
    old target is left as it was.
    """
    temp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise


def json_records(text: str, error: type = IndexFormatError) -> Iterator[tuple[int, dict]]:
    """Number and object of each non-blank line; error(message, line) for a bad one."""
    with io.StringIO(text, newline=None) as handle:
        for number, raw in enumerate(handle, start=1):
            if raw.strip():
                yield number, _parse_record(raw, number, error)


def _parse_record(raw: str, line: int, error: type = IndexFormatError) -> dict:
    """A line's JSON object; error(message, line) for anything else.

    A string holding a lone surrogate (an unpaired \\ud800-\\udfff escape)
    is refused too: it could not be written back as UTF-8. Only a line
    holding such an escape pays for that check.
    """
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an int, too deep
        raise error(f"invalid record ({getattr(exc, 'msg', exc)})", line) from exc
    if not isinstance(record, dict):
        raise error("record is not an object", line)
    # memchr for a backslash first: most lines hold none and skip both scans
    if "\\" in raw and ("\\ud" in raw or "\\uD" in raw):
        try:
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            surrogate = ord(exc.object[exc.start])
            raise error(f"invalid record (lone surrogate \\u{surrogate:04x})", line) from exc
    return record
