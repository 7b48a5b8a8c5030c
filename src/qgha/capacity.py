"""Configurable capacity bounds.

Degrees multiply under repeated substitution of f, so unguarded inputs can
exhaust memory; exhaustive searches (roots over F_p, expression expansion,
the gk horizon, the witness depth) are likewise only viable when small.
Both bounds can be overridden at once through the QGHA_CAPACITY
environment variable, which is read once, when this module is imported: a
positive integer sets both bounds, anything else keeps the defaults.
"""

import os

from .errors import CapacityExceeded

DEFAULT_DEGREE_CAP = 10**6
DEFAULT_SEARCH_CAP = 10**4


def _read_override(raw: "str | None") -> "int | None":
    """The bound a QGHA_CAPACITY value sets, or None for the defaults."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        return None
    return value if value > 0 else None


_OVERRIDE = _read_override(os.environ.get("QGHA_CAPACITY"))
# Largest polynomial degree any operation may produce.
DEGREE_CAP = _OVERRIDE or DEFAULT_DEGREE_CAP
# Largest exhaustive search space (prime-field size, expansions, ...).
SEARCH_CAP = _OVERRIDE or DEFAULT_SEARCH_CAP


def check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise CapacityExceeded(f"degree {degree} exceeds capacity bound {DEGREE_CAP}")


def check_search(size: int, what: str = "search space") -> None:
    if size > SEARCH_CAP:
        raise CapacityExceeded(f"{what} of size {size} exceeds capacity bound {SEARCH_CAP}")
