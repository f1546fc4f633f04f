"""Atomic text-file writer shared by the CLI formats and the CSV export."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text) -> None:
    """Write ``text`` to ``path`` via a temporary sibling and an atomic rename.

    The file is opened with ``newline=""``, so the bytes written are exactly
    the UTF-8 encoding of ``text`` on every platform.  On failure the
    ``OSError`` propagates, the temporary file is removed and the
    destination keeps its old content (or stays absent).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix="." + os.path.basename(path) + "-", suffix=".tmp"
        )
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
        tmp_path = None
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
