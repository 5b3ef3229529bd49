"""Expanding commutative von Neumann regular rings with an inverse.

A ring is regular when every x has a pseudoinverse y with x*y*x = x.  Any
such ring expands to a meadow, and to exactly one: whatever pseudoinverse
selector i is used, i(x)*x*i(x) always lands on the same element, namely
the unique y with x*x*y = x and y*y*x = y.  ``expand_to_meadow`` turns that
uniqueness proof into a runtime check by recomputing the table with the
opposite selection order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import NotAMeadow, NotRegular, UniquenessViolated
from .logic import REF, RIL
from .structures import FiniteStructure, check_axiom_set, check_table_bound

__all__ = [
    "RegularityReport", "zmod_ring", "is_regular", "pseudoinverses",
    "expand_inverse_table", "expand_to_meadow",
    "unique_double_pseudoinverse", "explicit_inverse_check",
]


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    witness: int | None = None  # an element with no pseudoinverse

    def __bool__(self) -> bool:
        return self.regular


def zmod_ring(k: int) -> FiniteStructure:
    """The ring Z/k as bare tables, without an inverse row."""
    if k < 1:
        raise ValueError("modulus must be positive")
    check_table_bound(k, f"Z/{k}")
    idx = list(range(k))
    return FiniteStructure(
        name=f"Z/{k}",
        size=k,
        zero=0,
        one=1 % k,
        add=tuple(tuple((a + b) % k for b in idx) for a in idx),
        mul=tuple(tuple((a * b) % k for b in idx) for a in idx),
        neg=tuple((-a) % k for a in idx),
        inv=None,
    )


def pseudoinverses(ring: FiniteStructure, x: int) -> list[int]:
    """All y with x*y*x = x, ascending."""
    mul = ring.mul
    return [y for y in range(ring.size) if mul[mul[x][y]][x] == x]


def is_regular(ring: FiniteStructure) -> RegularityReport:
    """Scan for an element without a pseudoinverse."""
    for x in range(ring.size):
        if not pseudoinverses(ring, x):
            return RegularityReport(False, x)
    return RegularityReport(True)


def expand_inverse_table(
    ring: FiniteStructure, prefer_greatest: bool = False
) -> tuple[int, ...]:
    """The inverse table i(x)*x*i(x) for a chosen pseudoinverse selector.

    Selects the least pseudoinverse by carrier order, or the greatest with
    prefer_greatest; by uniqueness of the expansion both give the same
    table, which expand_to_meadow asserts.
    """
    mul = ring.mul
    table = []
    for x in range(ring.size):
        candidates = pseudoinverses(ring, x)
        if not candidates:
            raise NotRegular(x)
        i = candidates[-1] if prefer_greatest else candidates[0]
        table.append(mul[mul[i][x]][i])
    return tuple(table)


def expand_to_meadow(ring: FiniteStructure) -> FiniteStructure:
    """Expand a regular commutative ring with its unique meadow inverse.

    Raises NotRegular (with the witness element) when some element has no
    pseudoinverse.  The result is checked to satisfy reflection and the
    restricted inverse law; failure there means the input was not a
    commutative ring in the first place.
    """
    ascending = expand_inverse_table(ring, prefer_greatest=False)
    descending = expand_inverse_table(ring, prefer_greatest=True)
    if ascending != descending:
        raise UniquenessViolated(
            f"pseudoinverse choice leaks into the inverse of {ring.name}"
        )
    expanded = replace(ring, inv=ascending)
    for name, verdict in check_axiom_set(expanded, {**REF, **RIL}).items():
        if not verdict.holds:
            raise NotAMeadow(
                f"{name} fails on the expansion of {ring.name} at {verdict.witness}"
            )
    return expanded


def unique_double_pseudoinverse(ring: FiniteStructure, x: int) -> int | None:
    """The y with x*x*y = x and y*y*x = y, or None when no such y exists.

    At most one can exist in a commutative ring; two would mean the tables
    are corrupt, which raises UniquenessViolated.
    """
    mul = ring.mul
    xx = mul[x][x]
    hits = [
        y
        for y in range(ring.size)
        if mul[xx][y] == x and mul[mul[y][y]][x] == y
    ]
    if len(hits) > 1:
        raise UniquenessViolated(
            f"elements {hits} are all double pseudoinverses of {x} in {ring.name}"
        )
    return hits[0] if hits else None


def explicit_inverse_check(ring: FiniteStructure) -> bool:
    """Check the explicit definition of inverse against the expansion.

    For every x, the set {z*x*z : x*z*x = x} must be a singleton holding
    exactly the expanded inverse of x.
    """
    table = expand_inverse_table(ring)
    mul = ring.mul
    for x in range(ring.size):
        images = {mul[mul[z][x]][z] for z in pseudoinverses(ring, x)}
        if images != {table[x]}:
            return False
    return True
