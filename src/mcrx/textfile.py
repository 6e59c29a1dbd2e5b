"""The one reader of every file mcrx reads, and the atomic writer of the
index and action files. It imports only errors, so reading a file loads no
index code. Lines follow the JSON Lines convention: a line ends at "\\n"
only, so a "\\r" before it stays in the line as whitespace, and each line
is decoded by itself, so a bad byte is named by its line.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator

from .errors import IndexFormatError


def utf8_lines(path: str | os.PathLike[str], name_file: bool = False) -> Iterator[tuple[int, str]]:
    """Number and text of each line of a file, without its "\\n". The first
    non-UTF-8 byte raises IndexFormatError naming its line or, with
    name_file, OSError naming the file and the line."""
    # a 64 KiB buffer reads the long index lines in fewer chunks
    with open(path, "rb", buffering=1 << 16) as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                error = IndexFormatError(f"not UTF-8 text ({exc.reason})", number)
                raise (OSError(f"{path}: {error}") if name_file else error) from exc
            yield number, text.removesuffix("\n")


def read_utf8(path: str | os.PathLike[str]) -> str:
    """A file's text, its final line break dropped; OSError names the file
    and line of a non-UTF-8 byte."""
    return "\n".join(text for _, text in utf8_lines(path, name_file=True))


def write_lines_atomic(path: str, lines: Iterable[str]) -> None:
    """Replace a file's content with lines as UTF-8, all or nothing.

    Each line is written as given, its line break included, as soon as it
    is produced, so no whole-file text is held. The lines go to a temporary
    file in the target's directory, named by pid and random bytes alone so
    that any legal target name leaves room for it; os.fsync puts its bytes
    on disk, and os.replace then moves it onto the target, so after a crash
    the target holds the old lines or all the new ones. If anything fails
    on the way, the temporary file is removed and the old target is left
    as it was.
    """
    name = f".mcrx-{os.getpid()}-{os.urandom(4).hex()}.tmp"
    temp = os.path.join(os.path.dirname(path), name)
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise


def json_records(
    path: str, error: type = IndexFormatError, name_file: bool = False
) -> Iterator[tuple[int, dict]]:
    """Number and object of each non-blank line, as utf8_lines(path,
    name_file) reads them; error(message, line) for a bad record."""
    for number, text in utf8_lines(path, name_file):
        if text.strip():
            yield number, _parse_record(text, number, error)


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
