"""uavnav: toolchain for generating, validating, and evaluating aerial
vision-language navigation episodes at desk scale."""

import json
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


_KIND_TESTS = {
    "an integer": is_integer,
    "an integer >= 0": lambda v: is_integer(v) and v >= 0,
    "an integer >= 1": lambda v: is_integer(v) and v >= 1,
    "a number": is_number,
    "a number >= 0": lambda v: is_number(v) and v >= 0,
    "a finite number > 0": lambda v: is_number(v) and v > 0,
    "two numbers": lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(is_number, v)),
    "two integers": lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_integer, v)),
    "two finite numbers": lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_number, v)),
    "three finite numbers": lambda v: isinstance(v, list) and len(v) == 3 and all(map(is_number, v)),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a bool": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(d, dict) for d in v),
    "a list of integers": lambda v: isinstance(v, list) and all(map(is_integer, v)),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)}


def check_kind(name: str, value, kind: str, error: type[Exception] = ValueError):
    """``value`` if it is of ``kind``, else ``error`` naming the field. "two
    numbers" is a tuple (of a config); the other pairs and lists are JSON lists."""
    if not _KIND_TESTS[kind](value):
        raise error(f"{name} must be {kind}, got {value!r}")
    return value


def check_kinds(obj, prefix: str, kinds: dict[str, tuple[str, ...]]) -> None:
    """Raise ConfigError naming the first listed field of ``obj`` not of its kind."""
    for kind, names in kinds.items():
        for name in names:
            check_kind(prefix + name, getattr(obj, name), kind, ConfigError)


def load_json(path: str | Path, kind: str, build=None):
    """The UTF-8 JSON document in ``path``, checked to be of ``kind`` (see
    ``check_kind``), as ``build(doc)`` when ``build`` is given. Every
    failure to read, decode, parse, check or build it, a ConfigError
    raised by ``build`` included, is one ConfigError "<path>: <detail>"."""
    try:
        doc = check_kind("document", json.loads(Path(path).read_bytes().decode("utf-8")), kind)
        return doc if build is None else build(doc)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Text ("w") or binary ("wb") handle whose bytes reach the file ``path``
    names, a symlink followed, whole or not at all: a temp file next to it
    replaces it when the block completes and is removed if the block raises.
    An existing target that is not a regular file, such as a FIFO or a
    device, is written in place, since a rename would replace the node."""
    path, encoding = Path(path), None if "b" in mode else "utf-8"
    if path.exists() and not path.is_file():
        with path.open(mode, encoding=encoding) as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open(mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(path: str | Path, doc) -> None:
    """Write ``doc`` as indented JSON through ``atomic_open``; the writing
    counterpart of ``load_json`` and the one place that knows the form,
    but for ``keyframe.save_merge_log``, which writes the same bytes."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=1))
