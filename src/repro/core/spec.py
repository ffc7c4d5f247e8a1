"""One grammar for every compact CLI spec.

``repro chaos``'s fault flags and ``repro fleet``'s ``--chaos``,
``--tenants`` and ``--upgrade`` read ``;``-separated items of the form
``[kind:][HEAD<sep>]key=value[,...]``: ``crash:gaudi2-1@t=2,recover=6``,
``0-1@t=1,factor=0.5``, ``gold:tier=0,share=0.25``, ``start=1``.
:meth:`Grammar.bind` calls a target (a dataclass or a builder method)
with one item's values, typed by its annotations: a ``str`` takes the
text, a ``float`` a finite number, an ``int`` an integral one.  Range
checks live in the targets' ``__post_init__``, which
:func:`repro.core.journal.decode` also runs.
"""

from __future__ import annotations

import inspect
import math
import typing
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple, TypeVar, Union

from repro.audit.errors import ConfigError

__all__ = ["Grammar", "split_items"]

T = TypeVar("T")


def split_items(text: str) -> List[str]:
    """The non-empty ``;``-separated items of ``text``, stripped."""
    return [item.strip() for item in text.split(";") if item.strip()]


@dataclass(frozen=True)
class Grammar:
    """One family of specs.  A spec key is its parameter's name unless
    ``renames`` maps it to another (``t`` -> ``at``)."""

    #: Names the spec in errors: ``bad {noun} spec '...'``.
    noun: str
    renames: Mapping[str, str]
    #: Separator between HEAD and the ``key=value`` list.
    sep: str = "@"

    def split_kind(
        self, item: str, kinds: Mapping[str, object], *, where: str
    ) -> Tuple[str, str]:
        """``"kind:rest"`` -> ``(kind, rest)``, with ``kind`` one of ``kinds``."""
        kind, sep, rest = item.partition(":")
        kind = kind.strip()
        if not sep or kind not in kinds:
            raise ConfigError(
                f"{where}bad {self.noun} spec {item!r}: expected KIND:... with "
                f"KIND one of {', '.join(kinds)}"
            )
        return kind, rest

    def bind(self, target: Callable[..., T], text: str, *, where: str,
             head: Tuple[str, ...] = ()) -> T:
        """Call ``target`` with the values of the one item ``text``.

        ``head`` names the parameters HEAD binds (two names read an
        ``A-B`` link).  ``where`` (e.g. ``"--fail-device: "``) prefixes
        every error, the target's own included.
        """

        def bad(detail: str) -> ConfigError:
            return ConfigError(f"{where}bad {self.noun} spec {text!r}: {detail}")

        params = inspect.signature(target).parameters
        hints = typing.get_type_hints(target)
        spelled = {name: key for key, name in self.renames.items()}
        names = {spelled.get(name, name): name for name in params if name not in head}
        kwargs: Dict[str, object] = {}
        body = text
        if head:  # HEAD<sep>, e.g. ``3@`` or ``gold:``
            head_text, sep, body = text.partition(self.sep)
            if not sep or not head_text.strip():
                form = "-".join(name.upper() for name in head)
                raise bad(f"expected {form}{self.sep}key=value[,...]")
            parts = head_text.strip().split("-", len(head) - 1)
            if len(parts) != len(head):
                raise ConfigError(f"{where}bad link {head_text!r}: expected an A-B device pair")
            for name, part in zip(head, parts):
                kwargs[name] = _coerce(hints[name], name, part.strip(), bad)
        for pair in filter(None, (p.strip() for p in body.split(","))):
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq:
                raise bad(f"{pair!r} is not key=value")
            if key not in names:
                raise bad(f"unknown key {key!r} (expected {', '.join(names)})")
            if names[key] in kwargs:
                raise bad(f"duplicate key {key}=")
            kwargs[names[key]] = _coerce(hints[names[key]], key, value.strip(), bad)
        for key, name in names.items():
            if params[name].default is params[name].empty and name not in kwargs:
                raise bad(f"missing {key}=")
        try:
            return target(**kwargs)
        except ConfigError as error:
            raise ConfigError(f"{where}{error}") from None


def _coerce(hint: object, label: str, text: str, bad: Callable[[str], ConfigError]) -> object:
    """``text`` as the type ``hint`` names (``Optional`` unwrapped)."""
    if typing.get_origin(hint) is Union:
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if hint is str:
        return text
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if hint is int:
        if not (math.isfinite(number) and number.is_integer()):
            raise bad(f"{label} must be an integer, got {text!r}")
        return int(number)
    if not math.isfinite(number):
        raise bad(f"{label} must be a finite number, got {text!r}")
    return number
