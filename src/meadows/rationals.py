"""Exact rational arithmetic with a total, zero-totalized inverse.

The inverse of 0 is 0 by definition rather than an error; that is the whole
point.  Evaluation reports an "unsafe division" flag alongside the value,
set exactly when some inverse of zero fires during evaluation, so a
formal calculation can be classified as safe or unsafe after the fact.

Python integers are arbitrary precision, so every operation is exact and
equality checks carry no tolerance at all.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, UnboundVariable
from .logic import Atom, ConditionalEquation, Equation, encode_conditional
from .terms import Add, Inv, Mul, Neg, One, Program, Term, Var, Zero

__all__ = [
    "RationalZT", "EvalTrace", "SampleVerdict",
    "rational", "parse_rational",
    "q_add", "q_neg", "q_mul", "q_inv",
    "eval_rational", "sample_assignments", "sample_check",
    "sample_check_conditional",
]


@dataclass(frozen=True, slots=True)
class RationalZT:
    """A rational in lowest terms with positive denominator; 0 is 0/1."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = gcd(abs(num), den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __add__(self, other: "RationalZT") -> "RationalZT":
        return q_add(self, other)

    def __mul__(self, other: "RationalZT") -> "RationalZT":
        return q_mul(self, other)

    def __neg__(self) -> "RationalZT":
        return q_neg(self)

    def __sub__(self, other: "RationalZT") -> "RationalZT":
        return q_add(self, q_neg(other))

    def inverse(self) -> "RationalZT":
        return q_inv(self)


Q_ZERO = RationalZT(0)
Q_ONE = RationalZT(1)


def rational(numerator: int, denominator: int = 1) -> RationalZT:
    return RationalZT(numerator, denominator)


_RATIONAL_RE = re.compile(r"\A(-?\d+)(?:/(-?\d+))?\Z")


def parse_rational(text: str) -> RationalZT:
    """Parse "p/q" or a plain integer; canonicalized on read."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}", 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator in rational literal", 0)
    return RationalZT(num, den)


def q_add(a: RationalZT, b: RationalZT) -> RationalZT:
    return RationalZT(
        a.numerator * b.denominator + b.numerator * a.denominator,
        a.denominator * b.denominator,
    )


def q_neg(a: RationalZT) -> RationalZT:
    return RationalZT(-a.numerator, a.denominator)


def q_mul(a: RationalZT, b: RationalZT) -> RationalZT:
    return RationalZT(a.numerator * b.numerator, a.denominator * b.denominator)


def q_inv(a: RationalZT) -> RationalZT:
    """Swap numerator and denominator; 0 maps to 0."""
    if a.numerator == 0:
        return Q_ZERO
    return RationalZT(a.denominator, a.numerator)


@dataclass(frozen=True)
class EvalTrace:
    value: RationalZT
    unsafe_division_used: bool


# The fold runs on canonical (numerator, denominator) pairs of ints, as
# RationalZT holds them; a RationalZT is built only for a value that leaves
# the fold.

def _add(a: tuple, b: tuple) -> tuple:
    if a[1] == 1 and b[1] == 1:
        return a[0] + b[0], 1
    num, den = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    g = gcd(num, den)
    return num // g, den // g


def _mul(a: tuple, b: tuple) -> tuple:
    if a[1] == 1 and b[1] == 1:
        return a[0] * b[0], 1
    num, den = a[0] * b[0], a[1] * b[1]
    g = gcd(num, den)
    return num // g, den // g


def _neg(a: tuple) -> tuple:
    return -a[0], a[1]


def _inv(a: tuple) -> tuple:
    num, den = a
    if num == 0:
        return a
    return (den, num) if num > 0 else (-den, -num)


class _Program:
    """A Program folded over Q0 as straight-line code on int pairs: closed
    shapes are valued here, once, and ``run`` values the others."""

    def __init__(self, program: Program):
        ops = {Add: _add, Mul: _mul, Neg: _neg, Inv: _inv}
        # By shape: the value of a closed subterm, None for the others.
        self.values: list[tuple | None] = []
        self.variables: list[tuple[int, str]] = []  # (shape, name)
        self.code: list[tuple] = []  # (shape, op, a, b), b None for - and ^-1
        # The shape under each ^-1.
        self.inverted = [a for kind, a, _ in program.shapes if kind is Inv]
        self.roots = program.roots
        values = self.values
        for i, (kind, a, b) in enumerate(program.shapes):
            value = None
            if kind is Var:
                self.variables.append((i, a))
            elif kind is Zero or kind is One:
                value = (0, 1) if kind is Zero else (1, 1)
            elif values[a] is None or b is not None and values[b] is None:
                self.code.append((i, ops[kind], a, b))
            else:
                op = ops[kind]
                value = op(values[a]) if b is None else op(values[a], values[b])
            values.append(value)

    def run(self, binding: Mapping[str, RationalZT]) -> list:
        """The value of every slot at binding, as an int pair; the list is
        reused by the next run."""
        values = self.values
        for i, name in self.variables:
            try:
                q = binding[name]
            except KeyError:
                raise UnboundVariable(name) from None
            values[i] = q.numerator, q.denominator
        for i, op, a, b in self.code:
            values[i] = op(values[a]) if b is None else op(values[a], values[b])
        return values


def eval_rational(
    t: Term, binding: Mapping[str, RationalZT] | None = None
) -> EvalTrace:
    """Evaluate exactly; the flag records whether 0^-1 was ever taken."""
    program = _Program(t.program)
    values = program.run(binding or {})
    return EvalTrace(
        RationalZT(*values[program.roots[0]]),
        any(values[a][0] == 0 for a in program.inverted),
    )


# --- seeded sampling ---------------------------------------------------------

def sample_assignments(
    variables: Iterable[str], count: int, seed: int = 0, bound: int = 10**6
) -> Iterator[dict[str, RationalZT]]:
    """Deterministic stream of assignments for the given variables.

    The distribution deliberately over-weights the singular points: each
    variable is 0 with probability 1/8, and 1 or -1 with probability 1/8
    each; otherwise numerator and denominator are uniform up to the bound.
    """
    ordered = sorted(set(variables))
    rng = random.Random(seed)
    for _ in range(count):
        a = {}
        for v in ordered:
            r = rng.random()
            if r < 0.125:
                a[v] = Q_ZERO
            elif r < 0.25:
                a[v] = Q_ONE
            elif r < 0.375:
                a[v] = RationalZT(-1)
            else:
                a[v] = RationalZT(
                    rng.randint(-bound, bound), rng.randint(1, bound)
                )
        yield a


@dataclass(frozen=True)
class SampleVerdict:
    holds: bool
    counterexample: dict[str, RationalZT] | None
    samples: int

    def __bool__(self) -> bool:
        return self.holds


def sample_check(eq: Equation, samples: int = 500, seed: int = 0) -> SampleVerdict:
    """Evaluate both sides at sampled points; any mismatch is reported exactly.

    Validity over the rationals cannot be decided by exhaustion, so this is
    evidence, not proof; the seed makes the evidence reproducible.
    """
    return sample_check_conditional(eq, samples, seed)


def sample_check_conditional(
    formula: Atom | ConditionalEquation, samples: int = 500, seed: int = 0
) -> SampleVerdict:
    """Sampled check of any formula: the first sampled point that satisfies
    every premise but not the conclusion is the counterexample.

    Equational premises are satisfied on a measure-zero set, so random
    points rarely exercise them: a formula with premises, all of them and
    its conclusion equations, is sampled through its encoded equation
    (encode_conditional) instead.  Disequation premises (the guarded laws)
    are hit constantly, so such a formula is sampled as is.  Its program is
    folded once: closed shapes are valued once, and every other shape once
    per sample.
    """
    atoms = (formula.conclusion, *formula.premises)
    if formula.premises and all(isinstance(atom, Equation) for atom in atoms):
        formula = encode_conditional(formula)
        atoms = (formula,)
    program = _Program(formula.program)
    # Each atom holds where its sides are equal exactly when it is an equation.
    tests = list(zip(program.roots[::2], program.roots[1::2],
                     [isinstance(atom, Equation) for atom in atoms]))
    for a in sample_assignments([v for _, v in program.variables], samples, seed):
        values = program.run(a)
        holds = [(values[lhs] == values[rhs]) == equal for lhs, rhs, equal in tests]
        if not holds[0] and all(holds[1:]):
            return SampleVerdict(False, a, samples)
    return SampleVerdict(True, None, samples)
