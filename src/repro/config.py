"""Shared, validated ``REPRO_*`` environment-variable parsing.

Every layer keeps one frozen config dataclass — :class:`MatchConfig`
(``REPRO_MATCH_WORKERS``, which only accepts 0: matching runs inline),
:class:`StoreConfig` (``REPRO_STORE_*``),
:class:`TransportConfig` (``REPRO_NET_*``) and :class:`ElasticityPolicy`
(``REPRO_POLICY_*``) — and each inherits :class:`EnvConfig`, the one
environment reader: field ``name`` reads ``<env_prefix><NAME>`` (or the
field's ``env`` metadata in place of ``NAME``) and is parsed by the
field's annotated type.  Precedence is the same everywhere: a non-``None``
override (a CLI flag or a caller's explicit value) beats a set variable,
which beats the field default.

The error behaviour is uniform: an unset or blank variable keeps the
default, a malformed value raises ``ValueError`` naming the variable, and
a value outside a field's ``choices`` metadata is rejected up front
instead of surfacing as a downstream validation error.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import typing
from typing import Callable, ClassVar, Optional, Sequence, Tuple

__all__ = ["EnvConfig", "env_int", "env_float", "env_bool", "env_str"]

#: Accepted spellings for boolean environment knobs.
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _raw(name: str) -> Optional[str]:
    """The variable's value, or ``None`` when unset/blank (keep default)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    return raw.strip()


def env_int(name: str, default: int) -> int:
    """Integer knob; unset/blank keeps ``default``."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def env_float(name: str, default: float) -> float:
    """Float knob; unset/blank keeps ``default``."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from None


def env_bool(name: str, default: bool) -> bool:
    """Boolean knob (1/true/yes/on vs 0/false/no/off, case-insensitive)."""
    raw = _raw(name)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        f"environment variable {name} must be a boolean "
        f"({'/'.join(_TRUE)} or {'/'.join(_FALSE)}), got {raw!r}"
    )


def env_str(
    name: str, default: str, choices: Optional[Sequence[str]] = None
) -> str:
    """String knob, optionally restricted to ``choices``."""
    raw = _raw(name)
    value = default if raw is None else raw
    if choices is not None and value not in choices:
        raise ValueError(
            f"environment variable {name} must be one of {tuple(choices)}, "
            f"got {value!r}"
        )
    return value


#: Parsers by annotated field type; any other type (``str``,
#: ``Optional[str]``, comma-separated ``Tuple[str, ...]``) reads as text.
_PARSERS = {bool: env_bool, int: env_int, float: env_float}


@functools.lru_cache(maxsize=None)
def _knobs(cls) -> Tuple[Tuple[str, str, Callable, object], ...]:
    """``(field, variable, parser, default)`` per field of ``cls``.

    Resolving string annotations costs far more than reading the
    environment, so it happens once per class.
    """
    hints = typing.get_type_hints(cls)
    knobs = []
    for spec in dataclasses.fields(cls):
        parse = _PARSERS.get(hints[spec.name])
        if parse is None:
            parse = functools.partial(
                env_str, choices=spec.metadata.get("choices")
            )
        var = cls.env_prefix + spec.metadata.get("env", spec.name.upper())
        knobs.append((spec.name, var, parse, spec.default))
    return tuple(knobs)


class EnvConfig:
    """Mixin giving a config dataclass its ``REPRO_*`` reader.

    Subclasses set :attr:`env_prefix`; a field's ``metadata`` may carry
    ``env`` (the variable suffix, when it is not the upper-cased field
    name) and ``choices`` (the accepted text values).
    """

    env_prefix: ClassVar[str]

    @classmethod
    def env_var(cls, name: str) -> str:
        """The environment variable of field ``name``."""
        return {field: var for field, var, _, _ in _knobs(cls)}[name]

    @classmethod
    def from_env(cls, **overrides):
        """Build from the environment with non-``None`` ``overrides`` on top.

        ``None`` overrides are ignored (unset CLI flags), so callers can
        forward every flag verbatim; an unknown name raises ``TypeError``.
        """
        knobs = _knobs(cls)
        unknown = set(overrides) - {name for name, _, _, _ in knobs}
        if unknown:
            raise TypeError(
                f"unknown {cls.__name__} knob(s): {', '.join(sorted(unknown))}"
            )
        values = {}
        for name, var, parse, default in knobs:
            override = overrides.get(name)
            values[name] = parse(var, default) if override is None else override
        return cls(**values)

    @classmethod
    def provenance(cls, **overrides) -> Sequence[Tuple[str, object, str]]:
        """``(knob, resolved value, source)`` rows, in field order.

        The source is ``cli`` for a non-``None`` override, ``env:<VAR>``
        for a set variable, else ``default``; tuple values print as
        comma-separated text (the spelling their variable takes).
        """
        resolved = cls.from_env(**overrides)
        rows = []
        for name, var, _, _ in _knobs(cls):
            if overrides.get(name) is not None:
                source = "cli"
            elif _raw(var) is not None:
                source = f"env:{var}"
            else:
                source = "default"
            value = getattr(resolved, name)
            if isinstance(value, tuple):
                value = ",".join(value)
            rows.append((name, value, source))
        return rows
