"""uavnav: toolchain for generating, validating, and evaluating aerial
vision-language navigation episodes at desk scale."""

import math
import numbers
import os
import threading
from contextlib import contextmanager
from pathlib import Path

__version__ = "0.1.0"


class UavnavError(Exception):
    """Base of every error the library raises on purpose (CLI exit code 1)."""


class ConfigError(UavnavError, ValueError):
    """Bad configuration or malformed input files (CLI exit code 2)."""


def is_number(v) -> bool:
    """A finite real number; a bool is no number."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, numbers.Integral) or math.isfinite(v)))


def is_integer(v) -> bool:
    """An integral number; a bool is no integer."""
    return is_number(v) and isinstance(v, numbers.Integral)


def check_kinds(obj, prefix: str, kinds: dict[str, tuple[str, ...]]) -> None:
    """Raise ConfigError naming the first listed field of ``obj`` that is
    not of its kind: "an integer", "a number" (finite), "two numbers" (a
    tuple), "a string", "a string or null" or "a bool". A bool is no
    number."""
    tests = {"an integer": is_integer,
             "a number": is_number,
             "two numbers": lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(is_number, v)),
             "a string": lambda v: isinstance(v, str),
             "a string or null": lambda v: v is None or isinstance(v, str),
             "a bool": lambda v: isinstance(v, bool)}
    for kind, names in kinds.items():
        for name in names:
            if not tests[kind](value := getattr(obj, name)):
                raise ConfigError(f"{prefix}{name} must be {kind}, got {value!r}")


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
