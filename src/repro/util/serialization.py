"""JSON serialisation helpers for experiment results.

Experiment results contain numpy scalars/arrays and dataclasses; these
helpers convert them into plain JSON-compatible structures so that runs
can be archived and later diffed against the paper's reported numbers.

The module also provides the file-level primitive the persistent layers
(:mod:`repro.store`, :mod:`repro.cluster`) build on: atomic byte writes
(tmp file + rename, so concurrent writers of one path never tear each
other's output).
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import typing
from pathlib import Path
from typing import Any, Optional, Type, TypeVar, Union

import numpy as np

from repro import faults

# json.dumps with any non-default argument builds a new encoder per
# call; encode() keeps no state between calls, so threads can share one.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    The single definition of the canonical form every content digest in
    the repo is computed over — spec ``canonical_key``s and store entry
    checksums must agree on it byte-for-byte.  The same bytes as
    ``json.dumps(data, sort_keys=True, separators=(",", ":"))``.
    """
    return _CANONICAL_ENCODER.encode(data)

T = TypeVar("T")


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable builtins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # A dataclass may customise its JSON shape (e.g. omit a default
        # field to keep digests stable) via __jsonable__, which returns
        # a plain field dict for this walker to finish converting.  The
        # hook applies at *every* nesting depth — an override of a
        # to_jsonable() entry-point method would silently not.
        custom = getattr(obj, "__jsonable__", None)
        if callable(custom):
            return to_jsonable(custom())
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialise object of type {type(obj)!r} to JSON")


def from_jsonable(cls: Type[T], data: Any) -> T:
    """Rebuild a spec dataclass from :func:`to_jsonable` output.

    The inverse of :func:`to_jsonable` for the declarative spec layer
    (it parses serve's request bodies and the queue's task files).
    Reconstruction is driven by the dataclass field annotations and
    understands exactly the field types the specs use: nested spec
    dataclasses, ``Optional[...]``, ``Tuple[X, ...]``, ``Dict[str, X]``,
    ``Any`` and ``str``/``int``/``float``/``bool`` (type-checked, with
    ``bool`` refused where a number is expected).

    Unknown keys in ``data`` are rejected so that a mistyped spec file
    fails loudly instead of being silently ignored.
    """
    return _from_jsonable(cls, data, path="$")


def _from_jsonable(tp: Any, data: Any, path: str) -> Any:
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)

    if tp is Any:
        return data
    if origin is Union:
        if data is None and type(None) in args:
            return None
        last_error: Exception = TypeError(f"{path}: no Union arm matched {data!r}")
        for arm in args:
            if arm is type(None):
                continue
            try:
                return _from_jsonable(arm, data, path)
            except (TypeError, ValueError, KeyError) as exc:
                last_error = exc
        raise last_error
    if dataclasses.is_dataclass(tp) and isinstance(tp, type):
        if not isinstance(data, dict):
            raise TypeError(f"{path}: expected a mapping for {tp.__name__}, got {type(data).__name__}")
        hints = typing.get_type_hints(tp)
        field_names = {f.name for f in dataclasses.fields(tp)}
        unknown = set(data) - field_names
        if unknown:
            raise TypeError(
                f"{path}: unknown field(s) {sorted(unknown)} for {tp.__name__}"
            )
        kwargs = {
            f.name: _from_jsonable(hints[f.name], data[f.name], f"{path}.{f.name}")
            for f in dataclasses.fields(tp)
            if f.name in data and f.init
        }
        return tp(**kwargs)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        if not isinstance(data, (list, tuple)):
            raise TypeError(f"{path}: expected a sequence, got {type(data).__name__}")
        return tuple(
            _from_jsonable(args[0], x, f"{path}[{i}]") for i, x in enumerate(data)
        )
    if origin is dict and args[0] is str:
        if not isinstance(data, dict):
            raise TypeError(f"{path}: expected a mapping, got {type(data).__name__}")
        return {
            k: _from_jsonable(args[1], v, f"{path}[{k!r}]") for k, v in data.items()
        }
    if tp is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise TypeError(f"{path}: expected a number, got {type(data).__name__}")
        return float(data)
    if tp is int:
        if isinstance(data, bool) or not isinstance(data, int):
            raise TypeError(f"{path}: expected an int, got {type(data).__name__}")
        return int(data)
    if tp is bool:
        if not isinstance(data, bool):
            raise TypeError(f"{path}: expected a bool, got {type(data).__name__}")
        return data
    if tp is str:
        if not isinstance(data, str):
            raise TypeError(f"{path}: expected a string, got {type(data).__name__}")
        return data
    raise TypeError(f"{path}: cannot reconstruct values of type {tp!r}")


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync a directory so a rename into it survives power loss.

    POSIX renames are atomic with respect to *readers* immediately, but
    the directory entry itself is only durable once the directory is
    fsynced.  Failures are swallowed: some filesystems refuse to open
    directories, and losing durability there is no worse than before.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    durable: bool = False,
    fault_point: Optional[str] = None,
) -> Path:
    """Write ``data`` to ``path`` atomically (tmp file in-dir + rename).

    ``os.replace`` is atomic on POSIX, so readers see either the old
    content or the new content, never a torn mix — and two concurrent
    writers of the same path each land a complete file (last one wins).

    ``durable=True`` additionally fdatasyncs the temp file before the
    rename and fsyncs the parent directory after it, upgrading the
    guarantee from crash-of-the-process to power-loss: a published file
    is on stable storage with its full content.

    ``fault_point`` names this write for :mod:`repro.faults`: the
    payload crosses ``{fault_point}.write`` (truncatable), the rename is
    preceded by ``{fault_point}.rename`` and followed by
    ``{fault_point}.publish`` — the three places a crash leaves
    observably different on-disk states.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fault_point is not None:
        data = faults.mangle(f"{fault_point}.write", data)
    # Not mkstemp: its hardwired 0600 mode would make published store
    # entries and queue tasks unreadable to cooperating processes under
    # other users.  Creating with mode 0666 lets the kernel apply the
    # umask atomically — no process-global umask probing needed.
    tmp_name = str(path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                # fdatasync skips the metadata flush fsync forces; the
                # rename + directory fsync below publish the metadata.
                getattr(os, "fdatasync", os.fsync)(fh.fileno())
        if fault_point is not None:
            faults.point(f"{fault_point}.rename")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent)
    if fault_point is not None:
        faults.point(f"{fault_point}.publish")
    return path


def dump_json(obj: Any, path: Union[str, Path], indent: int = 2) -> Path:
    """Serialise ``obj`` (via :func:`to_jsonable`) to ``path``."""
    path = Path(path)
    text = json.dumps(to_jsonable(obj), indent=indent, sort_keys=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Load JSON content written by :func:`dump_json`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
