"""Configurable capacity bounds.

Degrees multiply under repeated substitution of f, so unguarded inputs can
exhaust memory; SEARCH_CAP bounds every exhaustive search: root search,
enumeration and order computation in F_p, expression expansion, the gk
horizon and the witness depth.  A caller sets both bounds by assigning
DEGREE_CAP and SEARCH_CAP, as `qgha` does from QGHA_CAPACITY when it starts.
"""

from .errors import CapacityExceeded

DEFAULT_DEGREE_CAP = 10**6
DEFAULT_SEARCH_CAP = 10**4

DEGREE_CAP = DEFAULT_DEGREE_CAP  # largest polynomial degree any operation may produce
SEARCH_CAP = DEFAULT_SEARCH_CAP  # largest exhaustive search (prime-field size, expansions, ...)


def check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise CapacityExceeded(f"degree {degree} exceeds capacity bound {DEGREE_CAP}")


def check_search(size: int, what: str = "search space") -> None:
    if size > SEARCH_CAP:
        raise CapacityExceeded(f"{what} of size {size} exceeds capacity bound {SEARCH_CAP}")
