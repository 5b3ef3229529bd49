"""Batch checking across a battery of structures, plus the stock battery.

The standard battery mixes fields (prime and Galois), non-field minimal
meadows, products and substructures, so a law that only holds in fields or
only fails off fields gets caught.  The report separates the two camps and
states whether they agree on an equation, which is the checkable shadow of
the fact that fields and meadows have the same equational theory.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .finite_meadows import build_galois_field, build_mdk, build_prime_field
from .logic import DERIVED_IDENTITIES, Atom, ConditionalEquation, Equation
from .structures import (
    FiniteStructure, Verdict, check_conditional, is_zt_field, product,
    subalgebra_generated,
)
from .terms import ONE, ZERO, Add, Inv, Mul, Neg, Term, Var

__all__ = [
    "standard_battery", "derived_identity_suite",
    "BatteryReport", "battery_check",
    "random_term", "random_equation", "random_conditional",
]


@functools.lru_cache(maxsize=1)
def standard_battery() -> tuple[FiniteStructure, ...]:
    """A fixed, deterministic list of 27 meadows used by the test suites.

    Contents: the trivial meadow, six prime fields, three Galois fields,
    six non-trivial minimal meadows, eight products, and three proper
    substructures of products.
    """
    zp = {p: build_prime_field(p) for p in (2, 3, 5, 7, 11, 13)}
    gf4 = build_galois_field(2, 2)
    gf8 = build_galois_field(2, 3)
    gf9 = build_galois_field(3, 2)
    battery: list[FiniteStructure] = [build_mdk(1)]
    battery += [zp[p] for p in (2, 3, 5, 7, 11, 13)]
    battery += [gf4, gf8, gf9]
    battery += [build_mdk(k) for k in (6, 10, 15, 30, 70, 105)]
    battery += [
        product([zp[2], zp[2]]),
        product([zp[2], zp[3]]),
        product([zp[2], zp[5]]),
        product([zp[3], zp[3]]),
        product([zp[3], zp[5]]),
        product([zp[5], zp[7]]),
        product([zp[2], zp[2], zp[2]]),
        product([gf4, zp[3]]),
    ]
    battery += [
        subalgebra_generated(product([zp[2], zp[2]]))[0],
        subalgebra_generated(product([zp[3], zp[3]]))[0],
        subalgebra_generated(product([gf4, gf4]))[0],
    ]
    return tuple(battery)


def derived_identity_suite(s: FiniteStructure) -> dict[str, Verdict]:
    """Exhaustively check each consequence of the meadow laws on s.

    Every entry must hold on any meadow; a failure means s is not one.
    """
    return {
        name: check_conditional(s, formula)
        for name, formula in DERIVED_IDENTITIES.items()
    }


@dataclass(frozen=True)
class BatteryReport:
    """Per-structure verdicts plus the fields-versus-meadows summary."""

    rows: tuple[tuple[str, Verdict], ...]
    fields_valid: bool   # valid on every battery member that is a field
    meadows_valid: bool  # valid on every battery member

    @property
    def agreement(self) -> bool:
        return self.fields_valid == self.meadows_valid


def battery_check(
    formula: Atom | ConditionalEquation,
    battery: tuple[FiniteStructure, ...] | list[FiniteStructure],
) -> BatteryReport:
    """Check a formula on every battery member."""
    rows = []
    fields_valid = True
    meadows_valid = True
    for s in battery:
        verdict = check_conditional(s, formula)
        rows.append((s.name, verdict))
        meadows_valid = meadows_valid and verdict.holds
        if is_zt_field(s):
            fields_valid = fields_valid and verdict.holds
    return BatteryReport(tuple(rows), fields_valid, meadows_valid)


# --- seeded generation of formulas, for the soundness suites ---------------

def random_term(
    rng: random.Random,
    variables: tuple[str, ...] = ("x", "y", "z"),
    max_depth: int = 4,
) -> Term:
    roll = rng.random()
    if max_depth <= 0 or roll < 0.3:
        leaf = rng.randrange(2 + len(variables))
        if leaf == 0:
            return ZERO
        if leaf == 1:
            return ONE
        return Var(variables[leaf - 2])
    if roll < 0.45:
        return Neg(random_term(rng, variables, max_depth - 1))
    if roll < 0.6:
        return Inv(random_term(rng, variables, max_depth - 1))
    left = random_term(rng, variables, max_depth - 1)
    right = random_term(rng, variables, max_depth - 1)
    return Add(left, right) if roll < 0.8 else Mul(left, right)


def random_equation(
    rng: random.Random,
    variables: tuple[str, ...] = ("x", "y", "z"),
    max_depth: int = 4,
) -> Equation:
    return Equation(
        random_term(rng, variables, max_depth),
        random_term(rng, variables, max_depth),
    )


def random_conditional(
    rng: random.Random,
    variables: tuple[str, ...] = ("x", "y", "z"),
    max_depth: int = 4,
    max_premises: int = 3,
) -> ConditionalEquation:
    count = rng.randrange(max_premises + 1)
    premises = tuple(
        random_equation(rng, variables, max_depth) for _ in range(count)
    )
    return ConditionalEquation(
        premises, random_equation(rng, variables, max_depth)
    )
