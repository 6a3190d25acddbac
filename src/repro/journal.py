"""Append-only JSONL journals: one format, one crash rule.

The run journal, the job WAL, the per-job event logs and the structured
log all append, replay and compact through this module.  A record is
one sorted-key JSON object per line (:func:`encode`).  A batch is one
``write`` on an ``O_APPEND`` descriptor, so concurrent writers never
split each other's lines.  A writer killed mid-append leaves a last
line without ``\\n``; the next :func:`append` starts its batch with
``\\n``, so the torn line cannot swallow the new record, and
:func:`replay` counts and drops it: a crash costs at most the line
being written.  Only the standard library and :mod:`repro.errors` are
imported, so :mod:`repro.obs` can use it too.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from repro.errors import ReproError

T = TypeVar("T")

#: What a ``parse`` callback raises to reject one line.
_REJECTED = (ValueError, KeyError, TypeError, ReproError)


def encode(record: dict) -> str:
    """One journal line: the record as sorted-key JSON plus ``\\n``."""
    return json.dumps(record, sort_keys=True) + "\n"


def _open(path: Path, flags: int) -> int:
    """``os.open``, creating the parent directory only when missing."""
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o666)


def append(path: Path | str, lines: Iterable[str], *,
           durable: bool) -> None:
    """Append ``lines`` (each ending in ``\\n``) as one write.

    Fsyncs before returning when ``durable``.  Raises ``OSError``.
    """
    data = "".join(lines).encode("utf-8")
    if not data:
        return
    fd = _open(Path(path), os.O_RDWR | os.O_APPEND | os.O_CREAT)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data  # end the torn line a crash left
        written = os.write(fd, data)
        if written != len(data):
            raise OSError(f"short write to {path}: {written} of "
                          f"{len(data)} bytes")
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)


def replay(path: Path | str,
           parse: Callable[[dict], T]) -> tuple[list[T], int]:
    """``(items, skipped)``: ``parse`` of each line, in file order.

    A line that is not a JSON object, or that ``parse`` rejects with
    ``ValueError``, ``KeyError``, ``TypeError`` or ``ReproError``, is
    dropped and counted in ``skipped``; blank lines are ignored.  A
    missing file is an empty journal; any other ``OSError`` is raised.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    items: list[T] = []
    skipped = 0
    for raw in data.split(b"\n"):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("journal line is not an object")
            items.append(parse(record))
        except _REJECTED:
            skipped += 1
    return items, skipped


def rewrite(path: Path | str, lines: Iterable[str]) -> None:
    """Replace the journal with ``lines``, atomically and durably.

    A unique temp file beside ``path`` is written, fsync'd and renamed
    over it; the directory fsync after the rename keeps a power loss
    from bringing the old journal back.  On ``OSError`` the temp file
    is removed, the old journal is untouched, and the error is raised.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = _open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        with open(fd, "wb") as stream:
            stream.write("".join(lines).encode("utf-8"))
            stream.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
