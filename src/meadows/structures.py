"""Finite structures over the meadow signature, given by operation tables.

The carrier is always {0, ..., n-1}; names for elements belong to file
formats and front ends, not to the tables.  Structures are immutable after
construction and all checkers are pure, so everything here can be shared
freely between threads.  Each table is stored once, as a validated
read-only int32 array, and the package reads nothing else: whole tables
through numpy, single entries as plain ints.  The tuple views ``add``,
``mul``, ``neg`` and ``inv`` are built only when a reader outside the
package asks for one; they stay until the benchmark's ``Workload.keep``
can compare arrays.

Equation checking is exhaustive.  Each formula is compiled once, by one
iterative walk over its distinct nodes, into a straight-line program of
table lookups with shared subterms merged and closed subterms folded to
constants.  One search then runs it over the assignment grid with numpy,
block by block, each block by table lookups over broadcast axes.  A grid
whose arrays fit a fixed byte budget is a single block.  A larger one is
searched in blocks of consecutive values of one variable, the variables
before it pinned value by value: whatever does not use the block's
variable is hoisted and evaluated once per pin, and a block holds as many
values as keep a fresh array for every slot that varies within it, and
two masks, under the budget.  So the memory of a check stays bounded and
carriers of a couple hundred elements exhaust well inside interactive
budgets.  The checker returns the lexicographically least falsifying
assignment (variables in sorted order), so results are deterministic.
``eval_term`` evaluates single points by plain structural recursion and is
the independent oracle the checker is tested against.  It is the one walk
over terms that still recurses: an oracle is kept as simple as it can be,
and an iterative one measured slower on the CLI's ``eval``.  So a term
nested deeper than the interpreter's recursion limit, such as a long sum,
still exhausts the stack there.

An equation or a quasi-identity (a conditional whose premises are all
equations) whose grid is too large to evaluate whole is first decided on
the field factors of the structure.  A finite meadow is a product of
finite zero-totalized fields, and ``decompose`` validates that: its
diagonal is an injective homomorphism, inverse included, into the product
of its factors.  Such formulas are preserved by products and by
substructures, so one that holds on every factor holds on the structure,
and a few small grids replace one large one.  When a factor fails, the
formula has a disequation, or the structure does not decompose, the grid
of the structure itself is searched, so verdicts and least witnesses are
those of the grid.  The factors are computed on first use and kept on the
structure; writing them onto an immutable structure is idempotent, as
every computation gives the same factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    FormatError, MeadowError, MissingInverseTable, NoFiniteCharacteristic,
    NotAMeadow, SearchBoundExceeded, SizeOverflow, UnboundVariable,
)
from .logic import CR, MD, ZIL, GIL, SEP, Atom, ConditionalEquation, Equation
from .terms import Add, Inv, Mul, Neg, One, Term, Var, Zero

__all__ = [
    "Assignment", "Verdict", "FiniteStructure", "Homomorphism",
    "PrincipalIdeal",
    "eval_term", "check_equation", "check_conditional", "check_axiom_set",
    "field_factors",
    "is_meadow", "is_nontrivial", "is_zt_field", "satisfies_iel",
    "MAX_TABLE_ENTRIES", "check_table_bound",
    "characteristic", "product", "product_index", "product_coords",
    "subalgebra_generated", "is_minimal", "generating_set",
    "find_homomorphisms", "idempotents", "unit_of", "principal_ideal",
    "dump_structure", "load_structure",
]

Assignment = dict[str, int]

# Bytes of working arrays an exhaustive check may hold at once: the int32
# slots of a whole grid and two boolean masks over it, or, for a grid
# searched in blocks, an int32 array over the whole block for every slot
# that uses the head or a later variable, and the two masks.  Every slot
# of a block is a fresh array, live until the block is tested.  A block
# this size stays near the cache: of 1, 2, 4 and 8 MB, 2 MB exhausted the
# MD laws on every squarefree Md_k <= 210 fastest.
_BLOCK_BYTES = 1 << 21

# Constructors that build whole tables at once refuse a structure whose
# binary tables would hold more entries than this (a 1024-element carrier).
MAX_TABLE_ENTRIES = 2**20


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive check; witness is a falsifying assignment."""

    holds: bool
    witness: Assignment | None = None

    def __bool__(self) -> bool:
        return self.holds


def _int32(values, shape, bound, shape_error, range_error) -> np.ndarray:
    """values as an owned read-only int32 array of the given shape with
    entries in [0, bound), else ValueError(shape_error or range_error).  An
    array passed in is range-checked before the cast, so nothing wraps."""
    arr = values
    if not isinstance(values, np.ndarray):
        try:
            arr = np.asarray(values, dtype=np.int32)
        except OverflowError:
            raise ValueError(range_error) from None
        except ValueError:  # ragged rows
            raise ValueError(shape_error) from None
    if arr.shape != shape:
        raise ValueError(shape_error)
    if arr.min() < 0 or arr.max() >= bound:
        raise ValueError(range_error)
    out = arr.astype(np.int32, copy=arr is values)
    out.flags.writeable = False
    return out


class _TupleView:
    """A table as tuples of ints, for readers outside this package: built
    from the structure's array on first read and kept on the structure,
    where it shadows this descriptor.  Read on the class, it is the field's
    default, which only inv has."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, s, owner=None):
        if s is None:
            if self.name != "inv":
                raise AttributeError(self.name)
            return None
        table = getattr(s, "_" + self.name)
        view = None if table is None else tuple(
            tuple(row) if table.ndim == 2 else row for row in table.tolist()
        )
        object.__setattr__(s, self.name, view)
        return view


@dataclass(frozen=True, eq=False)
class FiniteStructure:
    """Operation tables for {0, 1, +, -, *} and optionally ^-1.

    ``add[r][c]`` holds r+c and ``mul[r][c]`` holds r*c.  ``inv`` is absent
    for raw rings that have not (or cannot) be expanded with an inverse.
    ``zero == one`` is allowed: the one-element structure is a meadow, just
    not a non-trivial one.

    Each table is stored once, as the owned read-only int32 array ``_add``,
    ``_mul``, ``_neg`` or ``_inv`` (None without an inverse); ``add`` and
    the others are tuple views of them for readers outside the package.
    Structures are equal when their names, sizes, constants and tables are.
    """

    name: str
    size: int
    zero: int
    one: int
    add: tuple[tuple[int, ...], ...] = _TupleView()
    mul: tuple[tuple[int, ...], ...] = _TupleView()
    neg: tuple[int, ...] = _TupleView()
    inv: tuple[int, ...] | None = _TupleView()

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise ValueError("carrier must be non-empty")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise ValueError("constants outside carrier")
        # object.__delattr__ and __setattr__ rather than __dict__, which
        # would turn the instance's attributes into a plain dict that every
        # attribute read in the checker then pays for.
        for label in ("add", "mul", "neg", "inv"):
            table = getattr(self, label)
            object.__delattr__(self, label)
            if label in ("add", "mul"):
                table = _int32(
                    table, (n, n), n,
                    f"{label} table is not {n}x{n}",
                    f"{label} table entry outside carrier",
                )
            elif table is not None:
                message = f"{label} row is not a map on the carrier"
                table = _int32(table, (n,), n, message, message)
            object.__setattr__(self, "_" + label, table)

    def _key(self):
        # Equality and hashing compare the tables as bytes, which are equal
        # exactly when equally sized arrays are.
        tables = (self._add, self._mul, self._neg, self._inv)
        return (self.name, self.size, self.zero, self.one,
                *(None if t is None else t.tobytes() for t in tables))

    def __eq__(self, other):
        if not isinstance(other, FiniteStructure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FiniteStructure({self.name!r}, size={self.size})"


# --- evaluation ----------------------------------------------------------

def eval_term(t: Term, s: FiniteStructure, assignment: Mapping[str, int] | None = None) -> int:
    """Evaluate a term to an element index, by structural recursion."""
    a = assignment or {}

    def rec(node: Term) -> int:
        match node:
            case Zero():
                return s.zero
            case One():
                return s.one
            case Var(name):
                try:
                    v = a[name]
                except KeyError:
                    raise UnboundVariable(name) from None
                if not 0 <= v < s.size:
                    raise ValueError(f"assignment {name}={v} outside carrier")
                return v
            case Neg(arg):
                return s._neg.item(rec(arg))
            case Inv(arg):
                if s._inv is None:
                    raise MissingInverseTable(
                        f"{s.name} has no inverse table but the term uses ^-1"
                    )
                return s._inv.item(rec(arg))
            case Add(l, r):
                return s._add.item(rec(l), rec(r))
            case Mul(l, r):
                return s._mul.item(rec(l), rec(r))
            case _:  # pragma: no cover
                raise TypeError(f"not a term: {node!r}")

    # rec refers to itself through its closure; drop it so no cycle is left.
    try:
        return rec(t)
    finally:
        del rec


# A formula is compiled to straight-line code over slots.  Each slot is
# (op, a, b): a constant (value), a variable (name), neg or inv of slot a,
# or add or mul of slots a and b.  The binary and unary codes index the
# tables in the order add, mul, neg, inv.
_ADD, _MUL, _NEG, _INV, _VAR, _CONST = range(6)


def _compile(s, terms):
    """Compile terms into one program: (ops, uses, names, roots, cells).

    One iterative walk visits each distinct node once, memoised by id, so
    shared subterms cost nothing and no tree is hashed or recursed into.
    Each slot is hash-consed on (op, child slots), and closed subterms fold
    through the tables to constants, plain ints.  ``uses[i]`` is the bit
    mask of the variables of slot i, bit d for ``names[d]``, the d-th
    variable met; it is 0 exactly for constants.  ``roots`` holds the slot
    of each term and ``cells`` the grid cells all slots would fill when
    broadcast.  Meeting ^-1 on a structure without an inverse table raises
    MissingInverseTable before anything is evaluated.
    """
    n = s.size
    tables = (s._add, s._mul, s._neg, s._inv)
    ops, uses, names = [], [], []
    consed, memo = {}, {}
    cells = 0
    for root in terms:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            cls = type(node)
            if cls is Add or cls is Mul:
                a = memo.get(id(node.left))
                b = memo.get(id(node.right))
                if a is None or b is None:
                    if b is None:
                        stack.append(node.right)
                    if a is None:
                        stack.append(node.left)
                    continue
                op, mask = (_ADD if cls is Add else _MUL), uses[a] | uses[b]
            elif cls is Neg or cls is Inv:
                if cls is Inv and s._inv is None:
                    raise MissingInverseTable(
                        f"{s.name} has no inverse table but the term uses ^-1"
                    )
                a = memo.get(id(node.arg))
                if a is None:
                    stack.append(node.arg)
                    continue
                op, b, mask = (_NEG if cls is Neg else _INV), None, uses[a]
            elif cls is Var:
                op, a, b, mask = _VAR, node.name, None, 1 << len(names)
            elif cls is Zero or cls is One:
                op, a, b, mask = _CONST, s.zero if cls is Zero else s.one, None, 0
            else:  # pragma: no cover
                raise TypeError(f"not a term: {node!r}")
            stack.pop()
            if not mask and op < _VAR:
                cell = (ops[a][1],) if b is None else (ops[a][1], ops[b][1])
                a, op, b = tables[op].item(cell), _CONST, None
            key = (op, a, b)
            slot = consed.get(key)
            if slot is None:
                slot = consed[key] = len(ops)
                ops.append(key)
                uses.append(mask)
                if op == _VAR:
                    names.append(a)
                if mask:
                    cells += n ** mask.bit_count()
            memo[id(node)] = slot
    return ops, uses, names, [memo[id(t)] for t in terms], cells


def _broadcast_eval(s, ops, uses, vals, skip, env):
    """Fill in vals, the values of the slots, by table lookups over
    broadcast axes, and return it.  env maps each variable to its value:
    an int when it is pinned, else its values along its own axis.  Slots
    already filled in, and those that use a variable in the mask skip,
    are left as they are."""
    tables = (s._add, s._mul, s._neg, s._inv)
    # An int32 scalar: numpy multiplies arrays by it faster than by an int.
    n = np.int32(s.size)
    for i, (op, a, b) in enumerate(ops):
        if vals[i] is not None or uses[i] & skip:
            continue
        if op < _NEG:
            vals[i] = tables[op].take(vals[a] * n + vals[b])
        elif op < _VAR:
            vals[i] = tables[op].take(vals[a])
        else:
            vals[i] = a if op == _CONST else env[a]
    return vals


def _search(s, ops, uses, names, tests, whole):
    """The least falsifier of a compiled formula, or None.

    With the variables in sorted order, a prefix of them is pinned, value
    by value, and the next one, the head, runs in blocks of consecutive
    values; pins and blocks both ascend, so the first block with a
    falsifier holds the least one.  A whole grid is one block.  Otherwise
    the prefix is the shortest one for which one head value fits
    _BLOCK_BYTES, counting an int32 array over the rest of the grid for
    every slot that uses the head or a later variable, and two boolean
    masks; a block holds as many head values as fit.  When a pin has
    several blocks, the slots without the head are evaluated once for it,
    before its blocks.
    """
    n = s.size
    order = sorted(names)
    depth, width = 0, n
    if not whole:
        bits = {v: 1 << d for d, v in enumerate(names)}
        later = sum(bits.values())  # the head and the variables after it
        for depth, head in enumerate(order):
            per_value = n ** (len(order) - depth - 1) * (
                4 * sum(1 for mask in uses if mask & later) + 2
            )
            if per_value <= _BLOCK_BYTES:
                break
            later ^= bits[head]
        width = min(n, max(1, _BLOCK_BYTES // per_value))
    free = order[depth:]
    # free[i] runs along axis i of len(free): one arange, as n values
    # followed by len(free) - 1 - i axes of length 1.
    values = np.arange(n, dtype=np.int32)
    axes = {v: values.reshape((-1,) + (1,) * i) for i, v in enumerate(free[::-1])}
    for pins in itertools.product(range(n), repeat=depth) if depth else [()]:
        env = {**axes, **dict(zip(order, pins))}
        hoisted = [None] * len(ops)
        if width < n:
            _broadcast_eval(s, ops, uses, hoisted, bits[free[0]], env)
        for start in range(0, n, width):
            if width < n:
                env[free[0]] = axes[free[0]][start:start + width]
            vals = _broadcast_eval(s, ops, uses, hoisted.copy(), 0, env)
            test, left, right = tests[0]
            bad = test(vals[left], vals[right])
            for test, left, right in tests[1:]:
                bad = bad & test(vals[left], vals[right])
            if bad.any():
                # Every variable occurs in a test, so bad spans the block.
                cell = np.unravel_index(int(bad.argmax()), bad.shape)
                return {
                    v: int(np.broadcast_to(env[v], bad.shape)[cell]) for v in order
                }
    return None


def field_factors(s: FiniteStructure) -> tuple[FiniteStructure, ...]:
    """The distinct canonical field factors of s, one per name, on which
    the checker decides equations and quasi-identities over large grids of
    s; () when it searches the grid of s itself, because s has fewer than
    two field components or decompose refuses it.  Computed once per
    structure and kept on it."""
    factors = getattr(s, "_factors", None)
    if factors is None:
        components = ()
        # A meadow with c field components has 2^c idempotents.
        if len(idempotents(s)) > 2:
            from .finite_meadows import decompose  # it imports this module

            try:
                components = decompose(s).components
            except (MeadowError, ValueError):
                pass
        factors = tuple({h.target.name: h.target for h in components}.values())
        object.__setattr__(s, "_factors", factors)
    return factors


def _find_falsifier(s, premises, conclusion, certify=True):
    """Least assignment satisfying all premises but not the conclusion.

    Returns None when no such assignment exists.  Variables are ordered by
    name, which fixes the lexicographic order.  The formula is compiled
    once (_compile) and its grid searched (_search): whole when its slots
    all fit _BLOCK_BYTES, else in blocks.  A larger grid is not searched
    when certify is set, every atom is an equation and the formula holds
    on every field factor of s, each decided on its own grid.
    """
    atoms = (conclusion, *premises)
    ops, uses, names, roots, cells = _compile(
        s, [side for atom in atoms for side in (atom.lhs, atom.rhs)]
    )
    # tests[0] marks where the conclusion fails, the others where a premise
    # holds; the falsifiers are where every test is true.
    tests = [
        (np.not_equal if isinstance(conclusion, Equation) else np.equal, *roots[:2])
    ]
    for k, p in enumerate(premises, 1):
        test = np.equal if isinstance(p, Equation) else np.not_equal
        tests.append((test, roots[2 * k], roots[2 * k + 1]))
    # The int32 slots and two boolean masks over the grid.
    whole = not names or 4 * cells + 2 * s.size ** len(names) <= _BLOCK_BYTES
    if not whole and certify and all(isinstance(atom, Equation) for atom in atoms):
        factors = field_factors(s)
        if factors and all(
            _find_falsifier(f, premises, conclusion, False) is None
            for f in factors
        ):
            return None
    return _search(s, ops, uses, names, tests, whole)


def check_equation(s: FiniteStructure, eq: Equation) -> Verdict:
    """Decide whether lhs = rhs holds under every assignment, by exhaustion."""
    return check_conditional(s, eq)


def check_conditional(
    s: FiniteStructure, formula: Atom | ConditionalEquation
) -> Verdict:
    """Decide a formula: every assignment satisfying the premises must
    satisfy the conclusion.  Premises and conclusion may be disequations;
    an atom has no premises."""
    witness = _find_falsifier(s, formula.premises, formula.conclusion)
    return Verdict(witness is None, witness)


def check_axiom_set(
    s: FiniteStructure, axioms: Mapping[str, Equation]
) -> dict[str, Verdict]:
    """Run check_equation per named axiom; preserves the set's order."""
    return {name: check_equation(s, eq) for name, eq in axioms.items()}


def is_meadow(s: FiniteStructure) -> bool:
    """True when the structure carries an inverse and satisfies all ten meadow laws."""
    if s._inv is None:
        return False
    return all(v.holds for v in check_axiom_set(s, MD).values())


def is_nontrivial(s: FiniteStructure) -> bool:
    """The separation axiom 0 != 1."""
    return s.zero != s.one


def is_zt_field(s: FiniteStructure) -> bool:
    """Zero-totalized field: ring laws, guarded inverse law, separation, 0^-1=0."""
    if s._inv is None:
        return False
    # The laws with one variable or none first: a meadow that is not a
    # field already fails GIL, before the three-variable ring laws run.
    return all(
        check_conditional(s, law).holds
        for law in (SEP, ZIL["Zil"], GIL, *CR.values())
    )


def satisfies_iel(s: FiniteStructure) -> bool:
    """Inverse existence: every nonzero x has some y with x*y = 1.

    The law has an existential conclusion, so it is checked by scan rather
    than as a conditional equation, on the whole table at once.
    """
    has_inverse = (s._mul == s.one).any(axis=1)
    has_inverse[s.zero] = True
    return bool(has_inverse.all())


# --- structural operations ------------------------------------------------

def characteristic(s: FiniteStructure) -> int:
    """Least k > 0 whose numeral evaluates to 0."""
    plus_one = s._add[:, s.one].tolist()
    acc = s.zero
    # Within size steps the sums of 1 come back to 0, or never do.
    for k in range(1, s.size + 1):
        acc = plus_one[acc]
        if acc == s.zero:
            return k
    raise NoFiniteCharacteristic(f"sums of 1 cycle without reaching 0 in {s.name}")


def product_index(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """Mixed-radix, little-endian: the first coordinate varies fastest."""
    idx = 0
    scale = 1
    for c, n in zip(coords, sizes):
        idx += c * scale
        scale *= n
    return idx


def product_coords(idx: int, sizes: Sequence[int]) -> tuple[int, ...]:
    coords = []
    for n in sizes:
        coords.append(idx % n)
        idx //= n
    return tuple(coords)


def check_table_bound(size: int, what: str) -> None:
    """Raise SizeOverflow when a binary table on `size` elements would hold
    more than MAX_TABLE_ENTRIES entries; called before anything is built."""
    if size * size > MAX_TABLE_ENTRIES:
        raise SizeOverflow(
            f"{what} has {size}x{size} tables, above the bound of "
            f"{MAX_TABLE_ENTRIES} entries"
        )


def product(
    factors: Sequence[FiniteStructure], name: str | None = None
) -> FiniteStructure:
    """Componentwise product; carries an inverse iff every factor does.
    Each table is the sum over the factors k of the factor's table at the
    mixed-radix coordinates (i // radix_k) % size_k, times radix_k."""
    if not factors:
        raise ValueError("product of no factors")
    sizes = [f.size for f in factors]
    size = math.prod(sizes)
    check_table_bound(size, "the product")
    radix = np.cumprod([1, *sizes[:-1]], dtype=np.int32)
    coords = (np.arange(size, dtype=np.int32)[:, None] // radix) % np.int32(sizes)

    def table(label):
        out = 0
        for c, r, f in zip(coords.T, radix, factors):
            t = getattr(f, label)
            out += t[np.ix_(c, c) if t.ndim == 2 else c] * r
        return out

    return FiniteStructure(
        name=name or "(" + " x ".join(f.name for f in factors) + ")",
        size=size,
        zero=product_index([f.zero for f in factors], sizes),
        one=product_index([f.one for f in factors], sizes),
        add=table("_add"),
        mul=table("_mul"),
        neg=table("_neg"),
        inv=None if any(f._inv is None for f in factors) else table("_inv"),
    )


def _restrict(s: FiniteStructure, elems: np.ndarray, name: str, one: int):
    """The tables of s on the ascending elements elems, re-indexed from 0,
    and the re-indexing (-1 off elems).  ValueError when elems is not
    closed under the operations or lacks the zero."""
    index = np.full(s.size, -1, dtype=np.int32)
    index[elems] = np.arange(elems.size, dtype=np.int32)
    rows, cols = elems[:, None], elems[None, :]
    restricted = FiniteStructure(
        name=name,
        size=elems.size,
        zero=int(index[s.zero]),
        one=int(index[one]),
        add=index[s._add[rows, cols]],
        mul=index[s._mul[rows, cols]],
        neg=index[s._neg[elems]],
        inv=None if s._inv is None else index[s._inv[elems]],
    )
    return restricted, index


def _closure(parts, seeds) -> np.ndarray:
    """Membership mask, over the product of the carriers of parts, of the
    least set holding the constants and the seeds and closed under the
    operations, taken coordinatewise; under ^-1 when every part has it.
    seeds holds one sequence of coordinates per part.  The set grows
    frontier by frontier: each round applies the unary tables to the
    frontier, the points new in the last round, and the binary ones to
    every pair with a frontier point."""
    inside = np.zeros([s.size for s in parts], dtype=bool)
    inside[tuple([s.zero, s.one, *c] for s, c in zip(parts, seeds))] = True
    unary = [[s._neg for s in parts], [s._inv for s in parts]]
    binary = [[s._add for s in parts], [s._mul for s in parts]]
    frontier = inside
    while frontier.any():
        new, old = np.nonzero(frontier), np.nonzero(inside)
        reached = np.zeros_like(inside)
        for rows in unary:
            if all(row is not None for row in rows):
                reached[tuple(row[c] for row, c in zip(rows, new))] = True
        for tables in binary:
            for a, b in (new, old), (old, new):
                reached[tuple(
                    t[i[:, None], j] for t, i, j in zip(tables, a, b)
                )] = True
        frontier = reached & ~inside
        inside = inside | frontier
    return inside


def subalgebra_generated(
    s: FiniteStructure, seeds: Iterable[int] = ()
) -> tuple[FiniteStructure, "Homomorphism"]:
    """Least substructure containing {0, 1} and the seeds, closed under all
    operations.  Returns the re-indexed structure and its inclusion map."""
    seeds = sorted(set(seeds))
    for e in seeds:
        if not 0 <= e < s.size:
            raise ValueError(f"seed {e} outside carrier")
    elems = np.flatnonzero(_closure((s,), (seeds,)))
    label = f"sub({s.name})" if not seeds else (
        f"sub({s.name};" + ",".join(map(str, seeds)) + ")"
    )
    sub, _ = _restrict(s, elems, label, s.one)
    inclusion = Homomorphism(sub, s, elems)
    return sub, inclusion


def is_minimal(s: FiniteStructure) -> bool:
    """Generated by its constants alone (no proper substructure)."""
    return bool(_closure((s,), ((),)).all())


def generating_set(s: FiniteStructure) -> list[int]:
    """A small generating set, greedily extending the closure of {0, 1}
    by its least missing element.

    Empty exactly when the structure is minimal.
    """
    gens: list[int] = []
    closed = _closure((s,), (gens,))
    while not closed.all():
        gens.append(int(closed.argmin()))
        closed = _closure((s,), (gens,))
    return gens


@dataclass(frozen=True)
class Homomorphism:
    """A carrier map commuting with 0, 1, +, -, * and, whenever both sides
    carry one, with ^-1.  Construction validates all of this on the whole
    tables at once and reports the least failing element or pair."""

    source: FiniteStructure
    target: FiniteStructure
    mapping: tuple[int, ...]

    def __post_init__(self):
        src, tgt = self.source, self.target
        message = "mapping is not a function into the target carrier"
        m = _int32(self.mapping, (src.size,), tgt.size, message, message)
        object.__setattr__(self, "mapping", tuple(m.tolist()))
        if m[src.zero] != tgt.zero or m[src.one] != tgt.one:
            raise ValueError("constants not preserved")
        # Every law on the whole table at once.  The error reported is the
        # one a scan of a, then b, would meet first: negation at a before
        # addition, then multiplication, at (a, b); the inverse after those.
        rows, cols = m[:, None], m[None, :]
        neg_bad = m[src._neg] != tgt._neg[m]
        add_bad = m[src._add] != tgt._add[rows, cols]
        mul_bad = m[src._mul] != tgt._mul[rows, cols]
        bad_rows = neg_bad | add_bad.any(axis=1) | mul_bad.any(axis=1)
        if bad_rows.any():
            a = int(bad_rows.argmax())
            if neg_bad[a]:
                raise ValueError(f"negation not preserved at {a}")
            b = int((add_bad[a] | mul_bad[a]).argmax())
            law = "addition" if add_bad[a, b] else "multiplication"
            raise ValueError(f"{law} not preserved at ({a},{b})")
        if src._inv is not None and tgt._inv is not None:
            inv_bad = m[src._inv] != tgt._inv[m]
            if inv_bad.any():
                raise ValueError(
                    f"inverse not preserved at {int(inv_bad.argmax())}"
                )

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    def __repr__(self) -> str:
        return (
            f"Homomorphism({self.source.name} -> {self.target.name}, "
            f"{list(self.mapping)})"
        )


def find_homomorphisms(
    src: FiniteStructure,
    tgt: FiniteStructure,
    require_inv: bool = True,
    search_bound: int = 1_000_000,
) -> list[Homomorphism]:
    """All homomorphisms src -> tgt, from the images of a generating set.

    The search space is |target| ** |generators| rather than all carrier
    maps.  Each choice of images gives at most one map: the substructure
    of src x tgt generated by the pairs (generator, image), when it is the
    graph of a map and that map passes the Homomorphism checks.  The
    inverse takes part in the closure when both sides carry one;
    require_inv demands that they do.
    """
    if require_inv and (src._inv is None or tgt._inv is None):
        raise MissingInverseTable("both structures need inverse tables")
    gens = generating_set(src)
    if tgt.size ** len(gens) > search_bound:
        raise SearchBoundExceeded(
            f"{tgt.size}^{len(gens)} candidate maps exceed bound {search_bound}"
        )
    out = []
    for images in itertools.product(range(tgt.size), repeat=len(gens)):
        graph = _closure((src, tgt), (gens, images))
        if (graph.sum(axis=1) == 1).all():
            try:
                out.append(Homomorphism(src, tgt, graph.argmax(axis=1)))
            except ValueError:
                continue
    return out


def idempotents(s: FiniteStructure) -> tuple[int, ...]:
    """All e with e*e = e, ascending."""
    squares = s._mul.diagonal()
    return tuple(np.flatnonzero(squares == np.arange(s.size)).tolist())


def unit_of(s: FiniteStructure, x: int) -> int:
    """The local unit x*x^-1 of x."""
    if s._inv is None:
        raise MissingInverseTable(f"{s.name} has no inverse table")
    return s._mul.item(x, s._inv.item(x))


@dataclass(frozen=True)
class PrincipalIdeal:
    """The ideal x*R with its own ring structure and the map onto it."""

    elements: tuple[int, ...]
    unit: int
    ring: FiniteStructure
    projection: Homomorphism  # y |-> (x*x^-1)*y, re-indexed into the ideal


def principal_ideal(s: FiniteStructure, x: int) -> PrincipalIdeal:
    """The principal ideal of x in a meadow, as a ring with unit x*x^-1.

    Verifies that the ideal of x and of its local unit coincide, that x,
    x^-1 and the local unit all lie inside, and that y |-> unit*y maps the
    whole structure onto the ideal.
    """
    if s._inv is None:
        raise MissingInverseTable(f"{s.name} has no inverse table")
    if not 0 <= x < s.size:
        raise ValueError(f"element {x} outside carrier")
    e = unit_of(s, x)
    mul = s._mul
    if mul.item(x, e) != x:
        raise NotAMeadow(f"restricted inverse law fails at {x} in {s.name}")
    # Membership masks over the carrier: np.unique would import numpy.ma.
    of_x, of_e = np.zeros((2, s.size), dtype=bool)
    of_x[mul[x]] = True
    of_e[mul[e]] = True
    if not np.array_equal(of_e, of_x) or not of_x[[x, e, s._inv[x]]].all():
        raise NotAMeadow(f"{s.name} does not behave like a meadow at {x}")
    elems = np.flatnonzero(of_x)
    try:
        ring, index = _restrict(s, elems, f"{s.name}|{x}", e)
    except ValueError:
        raise NotAMeadow(
            f"ideal of {x} in {s.name} is not closed under the operations"
        ) from None
    projection = Homomorphism(s, ring, index[mul[e]])
    return PrincipalIdeal(tuple(elems.tolist()), e, ring, projection)


# --- file format -----------------------------------------------------------
#
# Line-oriented UTF-8: `name:`, `size: n`, `zero: i`, `one: j`, then `add:`
# and `mul:` each followed by n rows of n indices, then `neg:` and
# optionally `inv:` each followed by one row.  `#` starts a comment.

def dump_structure(s: FiniteStructure) -> str:
    lines = [
        f"name: {s.name}",
        f"size: {s.size}",
        f"zero: {s.zero}",
        f"one: {s.one}",
    ]
    tables = {"add": s._add, "mul": s._mul, "neg": s._neg, "inv": s._inv}
    for label, table in tables.items():
        if table is not None:
            # n rows of a binary table, the one row of a unary one.
            rows = table.reshape(-1, s.size).tolist()
            lines += [f"{label}:", *(" ".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


class _Lines:
    def __init__(self, text: str):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            content = raw.split("#", 1)[0].strip()
            if content:
                self.items.append((no, content))
        self.i = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.i >= len(self.items):
            last = self.items[-1][0] if self.items else 0
            raise FormatError(f"unexpected end of file, expected {what}", last + 1)
        item = self.items[self.i]
        self.i += 1
        return item

    def done(self) -> bool:
        return self.i >= len(self.items)


def _expect_key(lines: _Lines, key: str) -> str:
    no, content = lines.next(f"'{key}:'")
    if not content.startswith(key + ":"):
        raise FormatError(f"expected '{key}:', found {content!r}", no)
    return content[len(key) + 1 :].strip()


def _int_row(no: int, content: str, n: int) -> tuple[int, ...]:
    parts = content.split()
    try:
        row = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(f"non-integer entry in {content!r}", no) from None
    if len(row) != n:
        raise FormatError(f"expected {n} entries, found {len(row)}", no)
    return row


def load_structure(text: str) -> FiniteStructure:
    """Parse the structure file format; raises FormatError with line numbers."""
    lines = _Lines(text)
    name = _expect_key(lines, "name")
    try:
        size = int(_expect_key(lines, "size"))
        zero = int(_expect_key(lines, "zero"))
        one = int(_expect_key(lines, "one"))
    except ValueError:
        raise FormatError("size, zero and one must be integers", 0) from None
    if size < 0:
        raise FormatError(f"size must not be negative, got {size}", 0)
    check_table_bound(size, f"structure {name!r}")

    def rows(key, count, what):
        if _expect_key(lines, key) and key in ("add", "mul"):
            raise FormatError(f"'{key}:' takes no inline value", 0)
        return [_int_row(*lines.next(what), size) for _ in range(count)]

    add = rows("add", size, "a row of the add table")
    mul = rows("mul", size, "a row of the mul table")
    (neg,) = rows("neg", 1, "the neg row")
    inv = None if lines.done() else rows("inv", 1, "the inv row")[0]
    if not lines.done():
        no, content = lines.next("")
        raise FormatError(f"trailing content {content!r}", no)
    try:
        return FiniteStructure(name, size, zero, one, add, mul, neg, inv)
    except ValueError as exc:
        raise FormatError(str(exc), 0) from None
