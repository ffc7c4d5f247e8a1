"""Append-only, checksummed journal of completed run points.

Long runs (``repro reproduce``, load sweeps) record each completed
point as one JSONL line the moment it finishes, so a crash -- a killed
worker, an OOM, a power cut -- loses at most the in-flight point.
``repro resume <run-dir>`` then re-runs only the missing or corrupt
points; because every point derives its randomness from its own
:func:`~repro.serving.loadgen.sweep_seeds` child seed, the resumed
output is bit-identical to an uninterrupted run.

Line format (one JSON object per line)::

    {"kind": "header"|"point", "key": str, "crc": int, "payload": {...}}

``crc`` is the CRC32 of the *canonical* JSON encoding of ``payload``
(sorted keys, compact separators), so a torn write -- the usual
crash-at-the-wrong-moment artifact -- is detected and the line is
skipped on load rather than poisoning the resume.  Appends flush and
fsync before returning: once :meth:`RunJournal.append` returns, the
point survives the process.

:func:`encode` / :func:`decode` are the one codec every journal writer
and reader uses for typed values: dataclasses become plain dicts in
field order, exactly (floats unrounded), and :func:`decode` rebuilds
them from the field annotations.  ``to_dict`` methods elsewhere are
*display* encodings (rounded, with derived rates) and never journaled.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import pathlib
import typing
import zlib
from typing import Dict, Iterable, Optional, Tuple, Type, TypeVar, Union

import numpy as np

from repro.audit.errors import JournalError

__all__ = ["RunJournal", "canonical_json", "checksum", "decode", "encode"]

T = TypeVar("T")

#: File name used for the journal inside a run directory.
JOURNAL_NAME = "journal.jsonl"


def canonical_json(payload: object) -> str:
    """Deterministic JSON encoding (sorted keys, compact separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: object) -> int:
    """CRC32 over the canonical JSON encoding of ``payload``."""
    return zlib.crc32(canonical_json(payload).encode("utf-8")) & 0xFFFFFFFF


def encode(value: object) -> object:
    """``value`` as plain JSON types, exactly (no rounding).

    Dataclasses become dicts of their fields in declaration order,
    enums their ``.value``, tuples and lists lists, dict keys strings,
    numpy scalars their Python equivalent.  Anything else raises
    :class:`TypeError`.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            item.name: encode(getattr(value, item.name))
            for item in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    raise TypeError(f"cannot journal a {type(value).__name__}: {value!r}")


def decode(cls: Type[T], payload: object) -> T:
    """Rebuild a ``cls`` instance from its :func:`encode` payload.

    Missing keys take the field's default, unknown keys are ignored,
    and ``__post_init__`` validation runs as on construction.  A
    missing required field or a value that does not fit its annotation
    raises :class:`~repro.audit.JournalError` naming ``Class.field``.
    """
    return _decode(cls, payload, cls.__name__)


def _decode(hint: object, value: object, where: str) -> object:
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise JournalError(f"{where}: expected an object, got {value!r}")
        hints = typing.get_type_hints(hint)
        kwargs = {}
        for item in dataclasses.fields(hint):
            name = f"{hint.__name__}.{item.name}"
            if item.name in value:
                kwargs[item.name] = _decode(hints[item.name], value[item.name], name)
            elif (item.default is dataclasses.MISSING
                  and item.default_factory is dataclasses.MISSING):
                raise JournalError(f"{name}: missing required field")
        return hint(**kwargs)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise JournalError(f"{where}: expected a list, got {value!r}")
        if origin is list or args[-1] is Ellipsis:
            items = [_decode(args[0], item, where) for item in value]
            return items if origin is list else tuple(items)
        if len(value) != len(args):
            raise JournalError(
                f"{where}: expected {len(args)} items, got {value!r}"
            )
        return tuple(_decode(arg, item, where) for arg, item in zip(args, value))
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            raise JournalError(
                f"{where}: {value!r} is not a {hint.__name__}"
            ) from None
    if hint is float:
        accepted: Tuple[type, ...] = (int, float)
    elif hint in (bool, int, str):
        accepted = (hint,)
    else:
        raise TypeError(f"{where}: cannot decode annotation {hint!r}")
    if isinstance(value, accepted) and isinstance(value, bool) == (hint is bool):
        return value
    raise JournalError(f"{where}: expected {hint.__name__}, got {value!r}")


class RunJournal:
    """One append-only JSONL journal (see module docstring).

    ``path`` may be the journal file itself or a run directory (the
    journal is then ``<dir>/journal.jsonl``).  The directory is created
    on first append.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        path = pathlib.Path(path)
        if path.suffix != ".jsonl":
            path = path / JOURNAL_NAME
        self.path = path

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r})"

    # -- writing -------------------------------------------------------
    def _append_line(self, record: Dict[str, object]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def write_header(self, payload: Dict[str, object]) -> None:
        """Record the run's configuration as the journal's first line.

        On an existing journal the stored header must match ``payload``
        exactly -- resuming a run with different parameters would
        silently mix incompatible points, so it raises
        :class:`~repro.audit.JournalError` instead.
        """
        existing = self.load_header()
        if existing is not None:
            if existing != payload:
                raise JournalError(
                    f"journal {self.path} was written by a different run "
                    f"configuration: stored {canonical_json(existing)} "
                    f"!= requested {canonical_json(payload)}"
                )
            return
        self._append_line(
            {"kind": "header", "key": "header", "crc": checksum(payload),
             "payload": payload}
        )

    def append(self, key: str, payload: Dict[str, object]) -> None:
        """Durably record one completed point under ``key``.

        ``payload`` must be JSON-serializable; if the same key is
        appended twice (e.g. a retry raced a crash), the *last* valid
        line wins on load.
        """
        if not key or key == "header":
            raise JournalError(f"invalid journal key {key!r}")
        self._append_line(
            {"kind": "point", "key": key, "crc": checksum(payload),
             "payload": payload}
        )

    # -- reading -------------------------------------------------------
    def _iter_valid(self) -> Iterable[Tuple[str, str, Dict[str, object]]]:
        """(kind, key, payload) for every line that parses and checks."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, TypeError):
                    self._skipped += 1
                    continue
                if not isinstance(record, dict):
                    self._skipped += 1
                    continue
                payload = record.get("payload")
                if record.get("crc") != checksum(payload):
                    self._skipped += 1
                    continue
                kind = record.get("kind")
                key = record.get("key")
                if kind not in ("header", "point") or not isinstance(key, str):
                    self._skipped += 1
                    continue
                yield kind, key, payload

    def load(self) -> Tuple[Optional[Dict[str, object]], Dict[str, Dict[str, object]], int]:
        """``(header, {key: payload}, skipped)`` from the journal.

        Corrupt lines (torn writes, bad checksums) are counted in
        ``skipped`` and ignored; a missing journal loads as
        ``(None, {}, 0)``.
        """
        self._skipped = 0
        header: Optional[Dict[str, object]] = None
        points: Dict[str, Dict[str, object]] = {}
        for kind, key, payload in self._iter_valid():
            if kind == "header":
                if header is None:
                    header = payload
            else:
                points[key] = payload
        return header, points, self._skipped

    def load_header(self) -> Optional[Dict[str, object]]:
        """Just the header payload (None when absent/corrupt)."""
        header, _, _ = self.load()
        return header

    def completed_keys(self) -> Dict[str, Dict[str, object]]:
        """The valid point payloads, keyed (last write wins)."""
        _, points, _ = self.load()
        return points
