"""Flat configs: dataclasses whose fields parse from text or JSON values by
their annotations, so a setting is declared once, as a field."""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections.abc import Mapping


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected text, got {type(value).__name__}")
    return value


def _parser(tp):
    """A function turning text or a native value into ``tp``: ``int``,
    ``float``, ``str``, ``tuple[X, ...]`` from comma-separated text or a
    sequence, or ``X | None``, where ``None`` or blank text means None."""
    args = typing.get_args(tp)
    if type(None) in args:
        inner = _parser(next(a for a in args if a is not type(None)))
        return lambda v: None if v is None or (isinstance(v, str) and not v.strip()) else inner(v)
    if typing.get_origin(tp) is tuple:
        item = _parser(args[0])
        return lambda v: tuple(item(x) for x in (v.split(",") if isinstance(v, str) else v)
                               if not (isinstance(x, str) and not x.strip()))
    return _text if tp is str else tp


@functools.cache
def _field_parsers(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: _parser(hints[f.name]) for f in dataclasses.fields(cls)}


class FlatConfig:
    """Base of a config dataclass: ``from_mapping`` and ``to_dict``."""

    @classmethod
    def from_mapping(cls, mapping: Mapping):
        """Build from a flat string/native mapping, ignoring unrelated keys.
        A value that does not parse as its field's type is a ValueError
        naming the field."""
        if not isinstance(mapping, Mapping):
            raise ValueError(f"a config must be a mapping, got {type(mapping).__name__}")
        kwargs = {}
        for name, parse in _field_parsers(cls).items():
            if name in mapping:
                try:
                    kwargs[name] = parse(mapping[name])
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(
                        f"config field {name}: cannot parse {mapping[name]!r:.60}"
                    ) from None
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The fields as JSON values, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}
