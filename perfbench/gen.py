"""Seeded generators for the benchmark's formulas.

Terms are plain tuples so that the inputs, and the oracles that judge the
program's answers, do not depend on any code inside ``meadows``:

    ("0",)  ("1",)  ("var", name)  ("neg", t)  ("inv", t)
    ("add", s, t)  ("mul", s, t)

A formula reaches the program only as text, through ``show`` and the
program's own parser.  ``show`` brackets every compound term, so the text
parses back to exactly the generated tree.
"""

from __future__ import annotations

import random

ZERO = ("0",)
ONE = ("1",)
X = ("var", "x")

# The guarded inverse law x != 0 -> x*x^-1 = 1, in atom form (see ``atoms``).
GIL = (((X, ZERO, False),), (("mul", X, ("inv", X)), ONE, True))


def term(rng: random.Random, variables: tuple[str, ...], depth: int) -> tuple:
    """A random term of at most ``depth`` operator levels.

    The mix (30% leaves at every level, then negation, inverse, sum and
    product) keeps terms small on average with a long tail of deep ones.
    """
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        leaf = rng.randrange(2 + len(variables))
        if leaf == 0:
            return ZERO
        if leaf == 1:
            return ONE
        return ("var", variables[leaf - 2])
    if roll < 0.45:
        return ("neg", term(rng, variables, depth - 1))
    if roll < 0.6:
        return ("inv", term(rng, variables, depth - 1))
    left = term(rng, variables, depth - 1)
    right = term(rng, variables, depth - 1)
    return ("add" if roll < 0.8 else "mul", left, right)


def equation(rng: random.Random, variables: tuple[str, ...], depth: int) -> tuple:
    """(lhs, rhs)."""
    return term(rng, variables, depth), term(rng, variables, depth)


def conditional(
    rng: random.Random, variables: tuple[str, ...], depth: int, count: int
) -> tuple:
    """(premises, conclusion) with ``count`` premises; every premise and the
    conclusion are equations."""
    premises = tuple(equation(rng, variables, depth) for _ in range(count))
    return premises, equation(rng, variables, depth)


def atoms(ce: tuple) -> tuple:
    """A conditional in atom form: (premise atoms, conclusion atom), each atom
    (lhs, rhs, is_equation), where is_equation is False for a disequation."""
    premises, (lhs, rhs) = ce
    return tuple((a, b, True) for a, b in premises), (lhs, rhs, True)


def show(t: tuple) -> str:
    """Concrete syntax with every compound term in brackets."""
    op = t[0]
    if op == "0" or op == "1":
        return op
    if op == "var":
        return t[1]
    if op == "neg":
        return f"-({show(t[1])})"
    if op == "inv":
        return f"inv({show(t[1])})"
    sign = "+" if op == "add" else "*"
    return f"({show(t[1])} {sign} {show(t[2])})"


def show_equation(eq: tuple) -> str:
    return f"{show(eq[0])} = {show(eq[1])}"


def show_conditional(ce: tuple) -> str:
    premises, conclusion = ce
    if not premises:
        return show_equation(conclusion)
    joined = " & ".join(show_equation(p) for p in premises)
    return f"{joined} -> {show_equation(conclusion)}"

