"""Configurable capacity bounds.

Degrees multiply under repeated substitution of f, so unguarded inputs can
exhaust memory; exhaustive searches (roots over F_p, expression expansion,
the gk horizon, the witness depth) are likewise only viable when small.
Both bounds can be overridden at once through the QGHA_CAPACITY
environment variable.
"""

import os
from functools import lru_cache

from .errors import CapacityExceeded

DEFAULT_DEGREE_CAP = 10**6
DEFAULT_SEARCH_CAP = 10**4

_ENV_VAR = "QGHA_CAPACITY"


@lru_cache(maxsize=1)
def _parse_override(raw: str) -> "int | None":
    """The bound a QGHA_CAPACITY value sets, parsed once per raw string."""
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _env_override() -> "int | None":
    raw = os.environ.get(_ENV_VAR)
    return None if raw is None else _parse_override(raw)


def degree_cap() -> int:
    """Largest polynomial degree any operation may produce."""
    return _env_override() or DEFAULT_DEGREE_CAP


def search_cap() -> int:
    """Largest exhaustive search space (prime-field size, expansions, ...)."""
    return _env_override() or DEFAULT_SEARCH_CAP


def check_degree(degree: int) -> None:
    cap = degree_cap()
    if degree > cap:
        raise CapacityExceeded(f"degree {degree} exceeds capacity bound {cap}")


def check_search(size: int, what: str = "search space") -> None:
    cap = search_cap()
    if size > cap:
        raise CapacityExceeded(f"{what} of size {size} exceeds capacity bound {cap}")
