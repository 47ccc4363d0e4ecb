"""Atomic file replacement, in a module that imports only the stdlib.

Sweep-cache entries, campaign ledgers and bench records are all written
the same way: the whole text goes to a temporary file next to the target,
which then replaces the target in one ``os.replace``.  A reader sees the
old file or the new one, never half of either.  The temporary name is
unique per process and per call, so two writers of the same target (a grid
that repeats a spec, two sessions sharing a cache directory) each rename
their own file and the last one wins.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Union

#: Per-process call counter (``next`` on it is atomic under the GIL).
_serial = itertools.count()


def write_text_atomic(path: Union[str, os.PathLike], text: str) -> None:
    """Replace ``path`` with ``text`` atomically, creating its parents."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_serial)}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
