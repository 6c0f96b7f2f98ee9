"""Atomic artifact writes, the one way minit5 puts a file on disk, and
`open_text`, which opens every text input.

Checkpoints, vocabulary and merges files, dedup output and stats, reports,
predictions, selection files and CSV datasets are each written to a
`.tmp-*` file in the target's directory, which is then renamed over the
target, so a reader sees the old file or the new one and never a partial
write."""

from __future__ import annotations

import contextlib
import os
import tempfile

# mkstemp creates its file 0600; artifacts get the mode a plain open() gives
_UMASK = os.umask(0)
os.umask(_UMASK)


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Yield a file open on a temporary file beside path: binary, or UTF-8
    text with line endings written as given. A clean exit renames it over
    path; on any exception path is left as it was and the temporary file
    is removed. Missing directories are created."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8", newline="")) as f:
            os.fchmod(fd, 0o666 & ~_UMASK)
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    with atomic_write(path) as f:
        f.write(text)


@contextlib.contextmanager
def open_text(path, newline=None):
    """Yield path open as UTF-8 text (newline as for open()); a leading
    byte order mark is skipped, not read as data. Bytes that are not UTF-8
    raise UnicodeDecodeError with the file's name in its reason, since the
    codec's position counts from the start of a read chunk, not of the
    file."""
    with open(path, encoding="utf-8-sig", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise UnicodeDecodeError(e.encoding, e.object, e.start, e.end, f"{e.reason}, in {path}") from None
