"""Equations, conditional equations, and the guard/merge encoding.

Everything here is syntax: building, parsing and transforming formulas over
the term language.  Semantic checking against finite structures lives in
:mod:`meadows.structures`; batch suites live in :mod:`meadows.suites`.

Every formula has one shape: a tuple of ``premises`` and a ``conclusion``,
each an atom (an ``Equation`` or a ``Disequation``).  An atom is the formula
with no premises and itself as conclusion, so an equation is a premise-free
conditional equation and checkers, samplers and the encoding take either
without wrapping it.

The named axiom sets are plain dictionaries so checkers can report per-law
verdicts:

* ``CR`` -- the eight commutative-ring-with-unit laws.
* ``MD`` -- ``CR`` plus reflection (Ref) and the restricted inverse law
  (Ril); models of ``MD`` are exactly the meadows.
* ``SIP`` -- the three unguarded strong inverse properties.
* ``ZIL`` -- the zero inverse law ``0^-1 = 0`` (derivable from ``MD``).
* ``GIL`` / ``SEP`` -- the guarded inverse law and separation, the two
  field axioms that are not equations; kept as conditional values and never
  fed to the equational checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnsupportedPremise
from .terms import (
    ONE, ZERO, Add, Compiled, Cursor, Inv, Mul, Neg, Term, Var, div,
    local_unit, parse_expr, print_term, sub, tokenize,
)

__all__ = [
    "Equation", "Disequation", "ConditionalEquation", "Atom",
    "parse_equation", "parse_conditional", "parse_formula",
    "format_equation", "format_atom", "format_conditional",
    "normalize_to_zero", "c_guard", "u_merge", "encode_conditional",
    "z_term", "ln_equation",
    "CR", "REF", "RIL", "MD", "SIP", "ZIL", "GIL", "SEP", "AXIOM_SETS",
    "DERIVED_IDENTITIES",
]


class _Formula(Compiled):
    def _roots(self):
        # The sides of the conclusion, then of each premise, in one Program.
        return [t for a in (self.conclusion, *self.premises) for t in (a.lhs, a.rhs)]


@dataclass(frozen=True)
class Atom(_Formula):
    """lhs = rhs or lhs != rhs: a formula with no premises, its own
    conclusion.  Only the subclass says which relation holds."""

    lhs: Term
    rhs: Term
    premises = ()

    @property
    def conclusion(self) -> "Atom":
        return self


class Equation(Atom):
    """lhs = rhs."""


class Disequation(Atom):
    """lhs != rhs.  Allowed in conditional premises and conclusions so the
    guarded field axioms can be written down, but never encodable."""


@dataclass(frozen=True)
class ConditionalEquation(_Formula):
    """premise_1 & ... & premise_n -> conclusion; n may be 0."""

    premises: tuple[Atom, ...]
    conclusion: Atom


# --- concrete syntax ---------------------------------------------------

def _parse_atom(cur: Cursor) -> Atom:
    lhs = parse_expr(cur)
    if cur.match("="):
        return Equation(lhs, parse_expr(cur))
    if cur.match("!="):
        return Disequation(lhs, parse_expr(cur))
    tok = cur.peek()
    raise ParseError(f"expected '=' or '!=', found {tok[1] or 'end of input'!r}", tok[2])


def parse_equation(src: str) -> Equation:
    cur = Cursor(tokenize(src))
    atom = _parse_atom(cur)
    cur.expect("eof")
    if not isinstance(atom, Equation):
        raise ParseError("expected an equation, found '!='", 0)
    return atom


def parse_conditional(src: str) -> ConditionalEquation:
    """Parse "p1 & p2 -> c"; a bare atom becomes a premise-free conditional."""
    cur = Cursor(tokenize(src))
    atoms = [_parse_atom(cur)]
    while cur.match("&"):
        atoms.append(_parse_atom(cur))
    if cur.match("->"):
        conclusion = _parse_atom(cur)
        cur.expect("eof")
        return ConditionalEquation(tuple(atoms), conclusion)
    tok = cur.peek()
    if len(atoms) > 1:
        raise ParseError("premises need a '->' conclusion", tok[2])
    cur.expect("eof")
    return ConditionalEquation((), atoms[0])


def parse_formula(src: str) -> Atom | ConditionalEquation:
    """Parse any formula: a bare equation comes back as an Equation, every
    other formula as parse_conditional gives it."""
    ce = parse_conditional(src)
    if not ce.premises and isinstance(ce.conclusion, Equation):
        return ce.conclusion
    return ce


def format_atom(atom: Atom) -> str:
    op = "=" if isinstance(atom, Equation) else "!="
    return f"{print_term(atom.lhs)} {op} {print_term(atom.rhs)}"


def format_equation(eq: Equation) -> str:
    return format_atom(eq)


def format_conditional(ce: Atom | ConditionalEquation) -> str:
    if not ce.premises:
        return format_atom(ce.conclusion)
    joined = " & ".join(format_atom(p) for p in ce.premises)
    return f"{joined} -> {format_atom(ce.conclusion)}"


# --- encoding of conditional equations into equations -------------------

def normalize_to_zero(eq: Equation) -> Equation:
    """Rewrite lhs = rhs into (lhs - rhs) = 0; applied uniformly."""
    return Equation(sub(eq.lhs, eq.rhs), ZERO)


def c_guard(x: Term, y: Term) -> Term:
    """(1 - x*x^-1) * y: equal to y where x is 0 and kills y where x is invertible."""
    return Mul(sub(ONE, local_unit(x)), y)


def u_merge(x: Term, y: Term) -> Term:
    """(x*y)/(x*y) - x/x - y/y: zero exactly where both x and y are zero."""
    xy = Mul(x, y)
    return sub(sub(div(xy, xy), div(x, x)), div(y, y))


def encode_conditional(ce: Atom | ConditionalEquation) -> Equation:
    """Fold a conditional equation into a single equation.

    With premises t1 = 0, ..., tn = 0 (after normalization) and conclusion
    t = 0, the result is C(U(...U(t1,t2)..., tn), t) = 0, left-nested.
    With no premises the normalized conclusion is returned as is.

    Raises UnsupportedPremise on any disequation: the encoding only exists
    for equational premises and conclusion.
    """
    sides = []
    for atom in (*ce.premises, ce.conclusion):
        if isinstance(atom, Disequation):
            raise UnsupportedPremise(
                f"cannot encode a disequation: {format_atom(atom)}"
            )
        sides.append(normalize_to_zero(atom).lhs)
    *premise_terms, t = sides
    if not premise_terms:
        return Equation(t, ZERO)
    u = premise_terms[0]
    for nxt in premise_terms[1:]:
        u = u_merge(u, nxt)
    return Equation(c_guard(u, t), ZERO)


# --- squares-of-units schemes -------------------------------------------

def z_term(x: Term) -> Term:
    """1 - x*x^-1: the zero-test term (1 at zero, 0 at invertible elements)."""
    return sub(ONE, local_unit(x))


def ln_equation(n: int) -> Equation:
    """The scheme asserting 1 + x1^2 + ... + xn^2 is always invertible."""
    if n < 1:
        raise ValueError("the scheme needs at least one variable")
    s: Term = ONE
    for i in range(1, n + 1):
        v = Var(f"x{i}")
        s = Add(s, Mul(v, v))
    return Equation(z_term(s), ZERO)


# --- axiom sets as data --------------------------------------------------

_X, _Y, _Z = Var("x"), Var("y"), Var("z")

CR: dict[str, Equation] = {
    "add_assoc": Equation(Add(Add(_X, _Y), _Z), Add(_X, Add(_Y, _Z))),
    "add_comm": Equation(Add(_X, _Y), Add(_Y, _X)),
    "add_zero": Equation(Add(_X, ZERO), _X),
    "add_neg": Equation(Add(_X, Neg(_X)), ZERO),
    "mul_assoc": Equation(Mul(Mul(_X, _Y), _Z), Mul(_X, Mul(_Y, _Z))),
    "mul_comm": Equation(Mul(_X, _Y), Mul(_Y, _X)),
    "mul_one": Equation(Mul(_X, ONE), _X),
    "distrib": Equation(Mul(_X, Add(_Y, _Z)), Add(Mul(_X, _Y), Mul(_X, _Z))),
}

REF: dict[str, Equation] = {"Ref": Equation(Inv(Inv(_X)), _X)}
RIL: dict[str, Equation] = {"Ril": Equation(Mul(_X, Mul(_X, Inv(_X))), _X)}

MD: dict[str, Equation] = {**CR, **REF, **RIL}

SIP: dict[str, Equation] = {
    "SIP1": Equation(Inv(Neg(_X)), Neg(Inv(_X))),
    "SIP2": Equation(Inv(Mul(_X, _Y)), Mul(Inv(_X), Inv(_Y))),
    "SIP3": Equation(Inv(Inv(_X)), _X),
}

ZIL: dict[str, Equation] = {"Zil": Equation(Inv(ZERO), ZERO)}

# The two non-equational field axioms, as checkable conditional values.
GIL = ConditionalEquation(
    (Disequation(_X, ZERO),), Equation(local_unit(_X), ONE)
)
SEP = ConditionalEquation((), Disequation(ZERO, ONE))

AXIOM_SETS: dict[str, dict[str, Equation]] = {
    "CR": CR,
    "Ref": REF,
    "Ril": RIL,
    "Md": MD,
    "SIP": SIP,
    "Zil": ZIL,
}

# Consequences of the meadow laws; each must hold in every meadow.
DERIVED_IDENTITIES: dict[str, Equation | ConditionalEquation] = {
    "unit_zero_fwd": ConditionalEquation(
        (Equation(local_unit(_X), ZERO),), Equation(_X, ZERO)
    ),
    "unit_zero_bwd": ConditionalEquation(
        (Equation(_X, ZERO),), Equation(local_unit(_X), ZERO)
    ),
    "implicit_inverse": ConditionalEquation(
        (Equation(Mul(_X, _Y), ONE),), Equation(Inv(_X), _Y)
    ),
    "SIP1": SIP["SIP1"],
    "SIP2": SIP["SIP2"],
    "square_fixed": ConditionalEquation(
        (Equation(Mul(_X, _X), _X),), Equation(_X, Inv(_X))
    ),
    "cube_fixed": ConditionalEquation(
        (Equation(Mul(Mul(_X, _X), _X), _X),), Equation(_X, Inv(_X))
    ),
    "fourth_power_fixed": ConditionalEquation(
        (Equation(Mul(Mul(Mul(_X, _X), _X), _X), _X),),
        Equation(_X, Mul(Inv(_X), Inv(_X))),
    ),
}
