"""Output files written whole or not at all.

Checkpoints, the run directory's config echo and history, and the
vocabulary dump all go through ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kw):
    """Open a temporary file next to path for writing; on a clean exit fsync
    it and rename it over path.  If the block raises, the temporary file is
    removed and whatever was at path is left as it was.

    Nested calls write several files together: each inner file is renamed
    when its block ends, so with the renames last in the outermost block,
    no file is replaced unless every one was written."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kw) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
