"""Run artifacts written so that a file at its final name is never half-written."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def replacing(path):
    """A binary file whose bytes reach ``path`` only if the block succeeds.

    The bytes go to ``path + ".tmp"``, which ``os.replace`` then renames onto
    ``path``. If the block or the rename fails, the temp file is removed and
    a previous file at ``path`` is left as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
