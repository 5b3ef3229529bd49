"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``meadows``.  The program's answers are judged against
computations made from first principles:

* Z/k arithmetic, with the meadow inverse x^(2*lambda(k) - 1) mod k, where
  lambda is the Carmichael function (computed by trial division);
* GF(p^m) built from log and antilog tables over the least monic
  irreducible, whose irreducibility sympy decides;
* a straight-line table evaluator with hash-consed subterms, pointwise in
  pure Python and over whole grids with numpy;
* zero-totalized arithmetic on ``fractions.Fraction``;
* readers for the program's text outputs (terms and structure files).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gen import ONE, ZERO


# --- number theory -------------------------------------------------------------

def primes_of(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and primes_of(n) == [n]


def is_squarefree(k: int) -> bool:
    return k >= 1 and math.prod(primes_of(k)) == k


def carmichael(k: int) -> int:
    """lambda(k) for squarefree k: the lcm of p - 1 over the primes p | k."""
    out = 1
    for p in primes_of(k):
        out = math.lcm(out, p - 1)
    return out


# --- finite structures as plain tables ------------------------------------------

@dataclass
class Tables:
    size: int
    zero: int
    one: int
    add: list
    mul: list
    neg: list
    inv: list | None
    name: str = ""


def tables_of(s) -> Tables:
    """Read the tables of a program structure (any object with these fields)."""
    return Tables(s.size, s.zero, s.one, s.add, s.mul, s.neg, s.inv, s.name)


def zk(k: int) -> Tables:
    """Z/k for squarefree k, with the meadow inverse x^(2*lambda(k)-1) mod k."""
    e = 2 * carmichael(k) - 1
    idx = range(k)
    return Tables(
        size=k, zero=0, one=1 % k,
        add=[[(a + b) % k for b in idx] for a in idx],
        mul=[[(a * b) % k for b in idx] for a in idx],
        neg=[(-a) % k for a in idx],
        inv=[pow(a, e, k) for a in idx],
        name=f"Z/{k}",
    )


def product_index(coords, sizes) -> int:
    """Mixed radix with the first coordinate varying fastest."""
    idx, scale = 0, 1
    for c, n in zip(coords, sizes):
        idx += c * scale
        scale *= n
    return idx


def product(factors: list[Tables]) -> Tables:
    sizes = [f.size for f in factors]
    coords = list(itertools.product(*(range(n) for n in reversed(sizes))))
    coords = [tuple(reversed(c)) for c in coords]  # index order, first fastest

    def binary(key):
        return [
            [product_index([getattr(f, key)[x][y] for f, x, y in zip(factors, a, b)], sizes)
             for b in coords]
            for a in coords
        ]

    def unary(key):
        return [product_index([getattr(f, key)[x] for f, x in zip(factors, a)], sizes)
                for a in coords]

    with_inv = all(f.inv is not None for f in factors)
    return Tables(
        size=math.prod(sizes),
        zero=product_index([f.zero for f in factors], sizes),
        one=product_index([f.one for f in factors], sizes),
        add=binary("add"), mul=binary("mul"), neg=unary("neg"),
        inv=unary("inv") if with_inv else None,
        name=" x ".join(f.name for f in factors),
    )


def is_field_scan(t: Tables) -> bool:
    """0 != 1 and x * x^-1 = 1 for every nonzero x."""
    if t.inv is None or t.zero == t.one:
        return False
    return all(t.mul[x][t.inv[x]] == t.one for x in range(t.size) if x != t.zero)


def homomorphism_errors(src: Tables, tgt: Tables, mapping) -> list[str]:
    """Where ``mapping`` fails to preserve 0, 1, +, *, - and ^-1."""
    m = np.asarray(mapping, dtype=np.int64)
    errors = []
    if len(m) != src.size or m.min() < 0 or m.max() >= tgt.size:
        return ["mapping is not a function into the target"]
    if m[src.zero] != tgt.zero or m[src.one] != tgt.one:
        errors.append("constants not preserved")
    for key in ("add", "mul"):
        s_tab = np.asarray(getattr(src, key), dtype=np.int64)
        t_tab = np.asarray(getattr(tgt, key), dtype=np.int64)
        if not np.array_equal(m[s_tab], t_tab[m[:, None], m[None, :]]):
            errors.append(f"{key} not preserved")
    for key in ("neg", "inv"):
        s_row, t_row = getattr(src, key), getattr(tgt, key)
        if s_row is None or t_row is None:
            continue
        s_row = np.asarray(s_row, dtype=np.int64)
        if not np.array_equal(m[s_row], np.asarray(t_row, dtype=np.int64)[m]):
            errors.append(f"{key} not preserved")
    return errors


# --- Galois fields ------------------------------------------------------------------

def digits(e: int, p: int, m: int) -> list[int]:
    return [(e // p**i) % p for i in range(m)]


def sympy_irreducible(low: list[int], p: int) -> bool:
    """Whether x^m + low[m-1] x^(m-1) + ... + low[0] is irreducible mod p."""
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly([1, *reversed(low)], x, modulus=p).is_irreducible


def modulus_of(t: Tables, p: int, m: int) -> list[int]:
    """The lower coefficients of the monic modulus behind GF(p^m) tables:
    x is the element p, and x^m reduces to minus the lower coefficients."""
    power = t.one
    for _ in range(m):
        power = t.mul[power][p]
    return [(-c) % p for c in digits(power, p, m)]


def least_irreducible_errors(low: list[int], p: int) -> list[str]:
    """The modulus must be irreducible and every smaller monic candidate of
    its degree (ordered as base-p numbers on the lower coefficients)
    reducible."""
    m = len(low)
    rank = sum(c * p**i for i, c in enumerate(low))
    if not sympy_irreducible(low, p):
        return [f"modulus {low} over Z/{p} is reducible"]
    for smaller in range(rank):
        cand = digits(smaller, p, m)
        if sympy_irreducible(cand, p):
            return [f"a smaller irreducible {cand} precedes the modulus {low}"]
    return []


def gf(p: int, low: list[int]) -> Tables:
    """GF(p^m) modulo x^m + low, elements encoded as sum(c_i * p^i)."""
    m = len(low)
    q = p**m

    def times_x(e):
        ds = digits(e, p, m)
        top = ds[-1]
        shifted = [0] + ds[:-1]
        return sum(((c - top * low[i]) % p) * p**i for i, c in enumerate(shifted))

    def times(a, b):
        out = 0
        for c in reversed(digits(b, p, m)):
            out = add_el(times_x(out), scale(a, c))
        return out

    def add_el(a, b):
        return sum(((x + y) % p) * p**i
                   for i, (x, y) in enumerate(zip(digits(a, p, m), digits(b, p, m))))

    def scale(a, c):
        return sum(((x * c) % p) * p**i for i, x in enumerate(digits(a, p, m)))

    # Log and antilog tables from the first element of multiplicative order q-1.
    for g in range(1, q):
        powers, e = [], 1
        for _ in range(q - 1):
            powers.append(e)
            e = times(e, g)
        if len(set(powers)) == q - 1:
            break
    log = {e: i for i, e in enumerate(powers)}
    d = np.array([digits(e, p, m) for e in range(q)], dtype=np.int64)
    weights = p ** np.arange(m, dtype=np.int64)
    add = ((d[:, None, :] + d[None, :, :]) % p) @ weights
    mul = [[0] * q for _ in range(q)]
    for a in range(1, q):
        la = log[a]
        row = mul[a]
        for b in range(1, q):
            row[b] = powers[(la + log[b]) % (q - 1)]
    inv = [0] + [powers[(-log[a]) % (q - 1)] for a in range(1, q)]
    neg = ((-d) % p) @ weights
    return Tables(q, 0, 1, add.tolist(), mul, neg.tolist(), inv, f"GF({p}^{m})")


def tables_equal(a: Tables, b: Tables) -> bool:
    return (
        a.size == b.size and a.zero == b.zero and a.one == b.one
        and np.array_equal(np.asarray(a.add), np.asarray(b.add))
        and np.array_equal(np.asarray(a.mul), np.asarray(b.mul))
        and list(a.neg) == list(b.neg)
        and (a.inv is None) == (b.inv is None)
        and (a.inv is None or list(a.inv) == list(b.inv))
    )


# --- terms: conversion, compilation, evaluation ----------------------------------------

_PROGRAM_TAGS = {"Neg": "neg", "Inv": "inv", "Add": "add", "Mul": "mul"}


def from_program(t, memo: dict | None = None) -> tuple:
    """Convert a program term (a tree of dataclasses) into the tuple form.

    Shared subterm objects stay shared, so encodings that repeat a subterm
    do not blow up."""
    memo = {} if memo is None else memo
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kind = type(node).__name__
        if kind == "Zero":
            memo[id(node)] = ZERO
        elif kind == "One":
            memo[id(node)] = ONE
        elif kind == "Var":
            memo[id(node)] = ("var", node.name)
        elif kind in ("Neg", "Inv"):
            if id(node.arg) not in memo:
                stack.append(node.arg)
                continue
            memo[id(node)] = (_PROGRAM_TAGS[kind], memo[id(node.arg)])
        elif kind in ("Add", "Mul"):
            pending = [c for c in (node.left, node.right) if id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[id(node)] = (_PROGRAM_TAGS[kind], memo[id(node.left)], memo[id(node.right)])
        else:
            raise TypeError(f"not a term: {node!r}")
        stack.pop()
    return memo[id(t)]


class Code:
    """A straight-line program with one slot per distinct subterm."""

    def __init__(self):
        self.ops: list[tuple] = []
        self._slot: dict = {}
        self._by_id: dict = {}

    def add(self, t: tuple) -> int:
        stack = [t]
        while stack:
            node = stack[-1]
            if id(node) in self._by_id:
                stack.pop()
                continue
            kids = node[1:] if node[0] not in ("var", "0", "1") else ()
            pending = [c for c in kids if id(c) not in self._by_id]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if kids:
                key = (node[0], *(self._by_id[id(c)] for c in kids))
            else:
                key = node
            slot = self._slot.get(key)
            if slot is None:
                slot = self._slot[key] = len(self.ops)
                self.ops.append(key)
            self._by_id[id(node)] = slot
        return self._by_id[id(t)]

    def values(self, t: Tables, env: dict) -> list[int]:
        vals = [0] * len(self.ops)
        add, mul, neg, inv = t.add, t.mul, t.neg, t.inv
        for i, op in enumerate(self.ops):
            tag = op[0]
            if tag == "add":
                vals[i] = add[vals[op[1]]][vals[op[2]]]
            elif tag == "mul":
                vals[i] = mul[vals[op[1]]][vals[op[2]]]
            elif tag == "neg":
                vals[i] = neg[vals[op[1]]]
            elif tag == "inv":
                vals[i] = inv[vals[op[1]]]
            elif tag == "var":
                vals[i] = env[op[1]]
            elif tag == "0":
                vals[i] = t.zero
            else:
                vals[i] = t.one
        return vals

    def grid(self, t: Tables, variables: list[str]) -> list:
        """Every slot evaluated over the whole grid, one axis per variable."""
        add, mul = np.asarray(t.add, dtype=np.int64), np.asarray(t.mul, dtype=np.int64)
        neg = np.asarray(t.neg, dtype=np.int64)
        inv = None if t.inv is None else np.asarray(t.inv, dtype=np.int64)
        vals: list = []
        for op in self.ops:
            tag = op[0]
            if tag == "add":
                v = add[vals[op[1]], vals[op[2]]]
            elif tag == "mul":
                v = mul[vals[op[1]], vals[op[2]]]
            elif tag == "neg":
                v = neg[vals[op[1]]]
            elif tag == "inv":
                v = inv[vals[op[1]]]
            elif tag == "var":
                shape = [1] * len(variables)
                shape[variables.index(op[1])] = t.size
                v = np.arange(t.size).reshape(shape)
            else:
                v = np.int64(t.zero if tag == "0" else t.one)
            vals.append(v)
        return vals


class Formula:
    """premises -> conclusion over compiled equations; disequations allowed.

    Atoms are (lhs, rhs, is_equation) in tuple form."""

    def __init__(self, premises, conclusion):
        self.code = Code()
        self.atoms = []
        names: set = set()
        for lhs, rhs, is_eq in (*premises, conclusion):
            self.atoms.append((self.code.add(lhs), self.code.add(rhs), is_eq))
            variables_into(lhs, names)
            variables_into(rhs, names)
        self.variables = sorted(names)

    def falsified_at(self, t: Tables, env: dict) -> bool:
        vals = self.code.values(t, env)

        def holds(atom):
            same = vals[atom[0]] == vals[atom[1]]
            return same if atom[2] else not same

        *premises, conclusion = self.atoms
        return all(holds(p) for p in premises) and not holds(conclusion)

    def cells(self, size: int) -> int:
        return size ** len(self.variables)

    def least_falsifier(self, t: Tables) -> dict | None:
        """The lexicographically least falsifying assignment, by brute force."""
        for values in itertools.product(range(t.size), repeat=len(self.variables)):
            env = dict(zip(self.variables, values))
            if self.falsified_at(t, env):
                return env
        return None

    def least_falsifier_grid(self, t: Tables) -> dict | None:
        """As least_falsifier, vectorised over the whole grid."""
        vals = self.code.grid(t, self.variables)
        shape = (t.size,) * len(self.variables)
        bad = np.ones(shape, dtype=bool)
        *premises, conclusion = self.atoms
        for a, b, is_eq in premises:
            same = vals[a] == vals[b]
            bad &= same if is_eq else ~same
        same = vals[conclusion[0]] == vals[conclusion[1]]
        bad &= ~same if conclusion[2] else same
        hits = np.argwhere(bad)
        if len(hits) == 0:
            return None
        return {v: int(i) for v, i in zip(self.variables, hits[0])}

    def pointwise(self, t: Tables) -> list[tuple]:
        """(premises hold, conclusion holds) at every point, in lexicographic order."""
        out = []
        for values in itertools.product(range(t.size), repeat=len(self.variables)):
            vals = self.code.values(t, dict(zip(self.variables, values)))
            flags = [(vals[a] == vals[b]) == is_eq for a, b, is_eq in self.atoms]
            out.append((all(flags[:-1]), flags[-1]))
        return out


def variables_into(t: tuple, out: set) -> set:
    stack = [t]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node[0] == "var":
            out.add(node[1])
        else:
            stack.extend(node[1:])
    return out


def equation_formula(lhs, rhs) -> Formula:
    return Formula((), (lhs, rhs, True))


# --- zero-totalized rationals ------------------------------------------------------

def q_eval(t: tuple, env: dict) -> tuple[Fraction, bool]:
    """Value and whether an inverse of zero was taken."""
    tag = t[0]
    if tag == "0":
        return Fraction(0), False
    if tag == "1":
        return Fraction(1), False
    if tag == "var":
        return env[t[1]], False
    if tag in ("neg", "inv"):
        v, unsafe = q_eval(t[1], env)
        if tag == "neg":
            return -v, unsafe
        return (Fraction(0) if v == 0 else 1 / v), unsafe or v == 0
    (a, ua), (b, ub) = q_eval(t[1], env), q_eval(t[2], env)
    return (a + b if tag == "add" else a * b), ua or ub


def q_show(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parse_assignment(text: str, as_int: bool) -> dict:
    """'x=1/2,y=3' as printed in a witness column."""
    out = {}
    for item in text.split(","):
        name, value = item.split("=")
        out[name] = int(value) if as_int else Fraction(value)
    return out


# --- readers for the program's text outputs -------------------------------------------

def _tokens(src: str) -> list[str]:
    out, i = [], 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif src.startswith("^-1", i):
            out.append("^-1")
            i += 3
        elif c.isalnum():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(src[i:j])
            i = j
        elif c in "+-*/()=":
            out.append(c)
            i += 1
        else:
            raise ValueError(f"unexpected {c!r} in {src!r}")
    return out


class _Reader:
    def __init__(self, src: str):
        self.toks = _tokens(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def sum(self):
        t = self.prod()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                t = ("add", t, self.prod())
            else:
                t = ("add", t, ("neg", self.prod()))
        return t

    def prod(self):
        t = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                t = ("mul", t, self.unary())
            else:
                t = ("mul", t, ("inv", self.unary()))
        return t

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        t = self.atom()
        while self.peek() == "^-1":
            self.take()
            t = ("inv", t)
        return t

    def atom(self):
        tok = self.take()
        if tok == "(":
            t = self.sum()
            self.take(")")
            return t
        if tok == "inv":
            self.take("(")
            t = self.sum()
            self.take(")")
            return ("inv", t)
        if tok.isdigit():
            t = ZERO
            for _ in range(int(tok)):
                t = ONE if t == ZERO else ("add", t, ONE)
            return t
        return ("var", tok)


def read_equation(src: str) -> tuple:
    """Parse 'lhs = rhs' in the program's concrete syntax into tuples."""
    r = _Reader(src)
    lhs = r.sum()
    r.take("=")
    rhs = r.sum()
    if r.peek() is not None:
        raise ValueError(f"trailing input in {src!r}")
    return lhs, rhs


def read_structure(text: str) -> Tables:
    """Parse the program's line-oriented structure file format."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    it = iter(lines)

    def take():
        line = next(it, None)
        if line is None:
            raise ValueError("structure file ends early")
        return line

    def value(key):
        line = take()
        if not line.startswith(key + ":"):
            raise ValueError(f"expected {key}:, found {line!r}")
        return line[len(key) + 1:].strip()

    def row():
        return [int(v) for v in take().split()]

    name = value("name")
    size, zero, one = int(value("size")), int(value("zero")), int(value("one"))
    value("add")
    add = [row() for _ in range(size)]
    value("mul")
    mul = [row() for _ in range(size)]
    value("neg")
    neg = row()
    inv = None
    rest = list(it)
    if rest:
        if rest[0] != "inv:" or len(rest) != 2:
            raise ValueError(f"unexpected trailing lines {rest[:2]!r}")
        inv = [int(v) for v in rest[1].split()]
    return Tables(size, zero, one, add, mul, neg, inv, name)


def write_structure(t: Tables, with_inv: bool = True) -> str:
    lines = [f"name: {t.name}", f"size: {t.size}", f"zero: {t.zero}", f"one: {t.one}", "add:"]
    lines += [" ".join(map(str, r)) for r in t.add]
    lines.append("mul:")
    lines += [" ".join(map(str, r)) for r in t.mul]
    lines += ["neg:", " ".join(map(str, t.neg))]
    if with_inv and t.inv is not None:
        lines += ["inv:", " ".join(map(str, t.inv))]
    return "\n".join(lines) + "\n"
