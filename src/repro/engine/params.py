"""Typed experiment parameter specs.

Each registered experiment declares its sweep axes and budgets as a
tuple of :class:`Param` entries.  The spec gives the engine everything
it needs to (a) validate and default caller overrides, (b) parse
``--set name=value`` strings from the CLI, and (c) canonicalise the
resolved parameters for seed derivation and cache keying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..seeding import canonical

#: Parameter kinds understood by the spec layer.
PARAM_KINDS = ("int", "float", "bool", "str", "int_list", "float_list",
               "pair_list", "int_pair_list")


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter.

    ``kind`` is one of :data:`PARAM_KINDS`; ``int_list`` is a sequence
    of integers (CLI syntax ``1,2,3``), ``float_list`` a sequence of
    floats (CLI syntax ``0.0,0.1,0.2``) and ``pair_list`` a sequence of
    ``(float, int)`` pairs (CLI syntax ``0.0:0,0.5:2``).
    """

    name: str
    kind: str
    default: Any
    help: str = ""
    choices: Optional[Tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown param kind {self.kind!r}")

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to the declared kind or raise ``ValueError``."""
        coerced = _COERCERS[self.kind](self.name, value)
        if self.choices is not None and coerced not in self.choices:
            raise ValueError(
                f"{self.name} must be one of {self.choices}, got {coerced!r}"
            )
        return coerced

    def parse(self, text: str) -> Any:
        """Parse a CLI string (``--set name=value``) into a typed value."""
        return self.validate(_PARSERS[self.kind](self.name, text))


def _coerce_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def _coerce_float(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _coerce_bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def _coerce_str(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _coerce_int_list(name: str, value: Any) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of ints, got {value!r}")
    return tuple(_coerce_int(name, item) for item in value)


def _coerce_float_list(name: str, value: Any) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of floats, got {value!r}")
    return tuple(_coerce_float(name, item) for item in value)


def _coerce_pair_list(name: str, value: Any) -> Tuple[Tuple[float, int], ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of pairs, got {value!r}")
    pairs = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"{name} entries must be pairs, got {item!r}")
        pairs.append((_coerce_float(name, item[0]),
                      _coerce_int(name, item[1])))
    return tuple(pairs)


def _coerce_int_pair_list(name: str, value: Any
                          ) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of pairs, got {value!r}")
    pairs = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"{name} entries must be pairs, got {item!r}")
        pairs.append((_coerce_int(name, item[0]),
                      _coerce_int(name, item[1])))
    return tuple(pairs)


_COERCERS = {
    "int": _coerce_int,
    "float": _coerce_float,
    "bool": _coerce_bool,
    "str": _coerce_str,
    "int_list": _coerce_int_list,
    "float_list": _coerce_float_list,
    "pair_list": _coerce_pair_list,
    "int_pair_list": _coerce_int_pair_list,
}

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _parse_bool(name: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"{name} must be a boolean, got {text!r}")


_PARSERS = {
    "int": lambda name, text: int(text),
    "float": lambda name, text: float(text),
    "bool": _parse_bool,
    "str": lambda name, text: text,
    "int_list": lambda name, text: [
        int(item) for item in text.split(",") if item.strip()
    ],
    "float_list": lambda name, text: [
        float(item) for item in text.split(",") if item.strip()
    ],
    "pair_list": lambda name, text: [
        [float(pair.split(":")[0]), int(pair.split(":")[1])]
        for pair in text.split(",") if pair.strip()
    ],
    "int_pair_list": lambda name, text: [
        [int(pair.split(":")[0]), int(pair.split(":")[1])]
        for pair in text.split(",") if pair.strip()
    ],
}


@dataclass(frozen=True)
class ParamSpec:
    """The full parameter spec of one experiment."""

    params: Tuple[Param, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate parameter names in {names}")

    def __iter__(self):
        return iter(self.params)

    def get(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(name)

    def resolve(self, overrides: Optional[Mapping[str, Any]] = None
                ) -> Dict[str, Any]:
        """Defaults merged with validated ``overrides``.

        Unknown override names raise ``ValueError`` (catching typos like
        ``run=3`` for ``runs=3`` before they silently no-op).
        """
        overrides = dict(overrides or {})
        resolved: Dict[str, Any] = {}
        for param in self.params:
            if param.name in overrides:
                resolved[param.name] = param.validate(
                    overrides.pop(param.name)
                )
            else:
                resolved[param.name] = param.validate(param.default)
        if overrides:
            known = ", ".join(p.name for p in self.params) or "(none)"
            raise ValueError(
                f"unknown parameter(s) {sorted(overrides)}; "
                f"this experiment accepts: {known}"
            )
        return resolved


def spec(*params: Param) -> ParamSpec:
    """Convenience constructor: ``spec(Param(...), Param(...))``."""
    return ParamSpec(params=tuple(params))


def canonical_params(params: Mapping[str, Any]) -> str:
    """Canonical JSON of a resolved parameter mapping.

    Sorted keys and tuple→list normalisation make this stable across
    processes; it is the form used for seed derivation and cache keys.
    """
    return canonical(dict(params))


def listify(value: Any) -> Any:
    """Recursively convert tuples to lists for JSON artifact emission."""
    if isinstance(value, (list, tuple)):
        return [listify(item) for item in value]
    if isinstance(value, dict):
        return {key: listify(item) for key, item in value.items()}
    return value


def name_list(text: str, known: Sequence[str], noun: str) -> List[str]:
    """Parse a comma-separated ``str`` param into names from ``known``
    (``noun`` labels the error messages)."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError(f"{noun}s must name at least one {noun}")
    for name in names:
        if name not in known:
            raise ValueError(
                f"unknown {noun} {name!r}; known: {', '.join(known)}"
            )
    return names
