"""Atomic artifact writes: the text goes to a temporary file in the target's
directory, which is then renamed over the target, so a reader sees the old
file or the new one and never a partial write."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text):
    """Write UTF-8 text to path, line endings as given. On any failure the
    target is left as it was and the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
