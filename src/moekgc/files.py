"""Output files written whole or not at all.

Checkpoints, the run directory's config echo and history, and the
vocabulary dump all go through ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import errno
import os


@contextlib.contextmanager
def atomic_write(*paths, mode: str = "wb", **open_kw):
    """Write the files at paths together: yields one handle per path, each
    open on a temporary file next to its path.

    On a clean exit every temporary file is fsynced and every path checked
    not to be a directory before the first is renamed over its path.  If
    the block or any of that raises, the temporary files are removed and
    every path is left as it was.  One window remains: a rename that fails
    for another reason after an earlier rename has replaced its path.
    After the renames each distinct directory they went into is fsynced,
    where the OS opens a directory (POSIX), so that they survive a power
    cut."""
    tmps = [f"{os.fspath(path)}.{os.getpid()}.tmp" for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            handles = tuple(stack.enter_context(open(tmp, mode, **open_kw)) for tmp in tmps)
            yield handles
            for fh in handles:
                fh.flush()
                os.fsync(fh.fileno())
        for path in paths:
            if os.path.isdir(path) and not os.path.islink(path):  # a rename replaces a link itself
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    if os.name == "posix":
        for parent in dict.fromkeys(os.path.dirname(os.path.abspath(p)) for p in paths):
            fd = os.open(parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
