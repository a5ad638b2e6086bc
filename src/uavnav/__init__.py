"""uavnav: toolchain for generating, validating, and evaluating aerial
vision-language navigation episodes at desk scale."""

import os
import threading
from contextlib import contextmanager
from pathlib import Path

__version__ = "0.1.0"


class UavnavError(Exception):
    """Base of every error the library raises on purpose (CLI exit code 1)."""


class ConfigError(UavnavError, ValueError):
    """Bad configuration or malformed input files (CLI exit code 2)."""


@contextmanager
def atomic_open(path: str | Path):
    """Text handle on a temp file next to ``path`` that replaces ``path``
    when the block completes; if the block raises, the temp file is
    removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
