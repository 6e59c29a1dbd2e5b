import math
import os

import pytest

import mcrx.textfile
from mcrx import RawDocument, build_corpus

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def make_kb(texts: dict[str, str]):
    kb, skipped = build_corpus([RawDocument(doc_id, body) for doc_id, body in texts.items()])
    assert not skipped
    return kb


@pytest.fixture
def c2():
    """Two documents sharing one word: d1="a b", d2="b c"."""
    return make_kb({"d1": "a b", "d2": "b c"})


@pytest.fixture
def c3():
    """Asymmetry witness: d1="a", d2="a b"."""
    return make_kb({"d1": "a", "d2": "a b"})


class HalfWrite:
    """A file whose write stores half the text, then fails like a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(28, "No space left on device")


def fail_saves(monkeypatch, how):
    """Make every save fail mid-write or at the final rename.

    Index and action-file saves both write through
    mcrx.textfile.write_lines_atomic, so its open is the one patched. Every
    read opens through mcrx.textfile too, so only a write-mode open fails.
    """
    if how == "write":

        def half_writes(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return handle if "r" in mode else HalfWrite(handle)

        monkeypatch.setattr(mcrx.textfile, "open", half_writes, raising=False)
    else:

        def refuse(src, dst):
            raise OSError(18, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", refuse)
