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

Equation checking is exhaustive.  Each formula is compiled once, in
``terms``, into its distinct shapes, children first, and keeps that
program (``formula.program``).  Each structure folds it into
straight-line code of table lookups: closed subterms become constants
through the structure's tables, and shapes that fold alike share one
slot.  So a formula checked on many structures, or on the field factors
of one, is walked once.  What a check needs of the formula alone, its
sorted variables and one numpy test per atom, is kept on the formula
too, and what it needs of the structure alone, its arange axes, on the
structure.  One search then runs the code over the assignment grid with
numpy, block by block, each block by table lookups over broadcast axes.
A grid whose arrays fit a fixed byte budget is a single block.  A larger
one is searched in blocks of consecutive values of one variable, the
variables before it pinned value by value, and a block holds as many
values as keep a fresh array for every slot that varies within it, and
two masks, under the budget.  So the memory of a check stays bounded and
carriers of a couple hundred elements exhaust well inside interactive
budgets.  A grid that costs more than folding its slots would first
searches the first variable's value 0 alone, where most failing
equations have their least falsifier.  The checker returns the
lexicographically least falsifying assignment (variables in sorted
order), so results are deterministic.  ``eval_term`` evaluates single
points by plain structural recursion and is the independent oracle the
checker is tested against.  It is the one walk over terms that still
recurses, as an oracle is kept as simple as it can be, so a term nested
deeper than the interpreter's recursion limit, such as a long sum,
exhausts the stack there.  ``fold_point``, which the CLI's ``eval``
uses, folds the term's kept program through the tables instead and takes
any depth.

An equation or a quasi-identity (a conditional whose premises are all
equations) is first decided on zero-totalized fields when that is
expected to cost less than its grid, counting the ``decompose`` it needs
when the structure has not been decomposed yet and its grids have not
yet spent as many cells as that ``decompose`` costs; the grid's cost is
its cells, and the certificate's is a measured cost per slot of the fold
or of each factor.  So a single check never pays for a ``decompose``
that costs more than its grid, while a structure checked again and again
pays for one once its grids have cost as much.  ``decompose`` certifies
the fields: a structure with one field component is isomorphic to that
canonical field, and otherwise its diagonal is an injective
homomorphism, inverse included, into the product of its factors.  On a
field of q elements every function is exactly one polynomial of degree
below q in each variable, so an equation holds there when its two sides
reduce to the same polynomial; the coefficients are computed with the
field's own tables.  Quasi-identities are preserved by products and by
substructures, so one that holds on every factor holds on the structure,
and a few small grids, or polynomials, replace one large one.  Only
"holds" comes from the fields: when a certificate would cost more than
the grid, when the formula has a disequation, or premises on a field,
when the polynomials differ or their fold gives up, when a factor fails,
or when the structure does not decompose, the grid of the structure
itself is searched, so verdicts and least witnesses are those of the
grid.  What ``decompose`` certifies is computed on first use and kept on
the structure, without a canonical copy of a field.  Everything the
checker keeps on a structure is in one record set at construction
(``_Kept``); filling it in on an immutable structure is idempotent, as
every computation gives the same, and the grid cells it counts move
time, never a verdict.
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
    "eval_term", "fold_point", "check_equation", "check_conditional",
    "check_axiom_set", "field_factors",
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
    """values as a read-only int32 array of the given shape with entries in
    [0, bound), else ValueError(shape_error or range_error).  An array passed
    in is range-checked before the cast, so nothing wraps, and copied unless
    it is a read-only int32 array already."""
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
    out = arr.astype(np.int32, copy=arr is values and arr.flags.writeable)
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


class _Kept:
    """What the checker keeps on a structure, computed from the structure
    alone: ``fields``, what decompose certifies (_fields), None until the
    checker asks for it; ``spent``, the grid cells of the equational checks
    sent to its grid so far, each counted whole as the certificate gate
    prices it, even when the search stops at an early falsifier; ``axes``,
    where ``axes[j]`` is the carrier as an int32 arange followed by j axes
    of length 1, replaced by a longer list when a check needs more axes.
    Nothing here depends on a formula."""

    __slots__ = ("fields", "spent", "axes")

    def __init__(self):
        self.fields = None
        self.spent = 0
        self.axes = []


@dataclass(frozen=True, eq=False)
class FiniteStructure:
    """Operation tables for {0, 1, +, -, *} and optionally ^-1.

    ``add[r][c]`` holds r+c and ``mul[r][c]`` holds r*c.  ``inv`` is absent
    for raw rings that have not (or cannot) be expanded with an inverse.
    ``zero == one`` is allowed: the one-element structure is a meadow, just
    not a non-trivial one.

    Each table is stored once, as the read-only int32 array ``_add``,
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
        # Set here, so that no attribute is added after construction: a
        # late one costs every later attribute read of the instance.
        object.__setattr__(self, "_kept", _Kept())

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


def fold_point(t: Term, s: FiniteStructure, assignment: Mapping[str, int]) -> int:
    """The value of t at one point: its kept program folded to one element
    through the tables, shape by shape, so no depth exhausts the stack.
    The values of the assignment must lie in the carrier.  Where both a
    missing inverse table and an unbound variable apply, the missing table
    is reported, as the checker reports it."""
    shapes = t.program.shapes
    if s._inv is None and any(kind is Inv for kind, _, _ in shapes):
        raise MissingInverseTable(
            f"{s.name} has no inverse table but the term uses ^-1"
        )
    add, mul, neg = s._add.item, s._mul.item, s._neg.item
    inv = None if s._inv is None else s._inv.item
    values: list[int] = []
    push = values.append
    for kind, a, b in shapes:
        if kind is Add:
            push(add(values[a], values[b]))
        elif kind is Mul:
            push(mul(values[a], values[b]))
        elif kind is Neg:
            push(neg(values[a]))
        elif kind is Inv:
            push(inv(values[a]))
        elif kind is Var:
            try:
                push(assignment[a])
            except KeyError:
                raise UnboundVariable(a) from None
        else:
            push(s.zero if kind is Zero else s.one)
    return values[t.program.roots[0]]


# A formula is compiled to straight-line code over slots.  Each slot is
# (op, a, b): a constant (value), a variable (name), neg or inv of slot a,
# or add or mul of slots a and b.  The binary and unary codes index the
# tables in the order add, mul, neg, inv.
_ADD, _MUL, _NEG, _INV, _VAR, _CONST = range(6)
_OPS = {Add: _ADD, Mul: _MUL, Neg: _NEG, Inv: _INV}


def _compile(s, program):
    """Fold a formula's Program on s: (ops, uses, names, roots, cells).

    The shapes come compiled once per formula (``terms.compile_terms``);
    this pass does the work that depends on s.  Closed shapes fold through
    the tables to constants, plain ints, and each slot is hash-consed on
    (op, child slots), so shapes that fold alike share one.  ``uses[i]`` is
    the bit mask of the variables of slot i, bit d for ``names[d]``, the
    d-th variable met; it is 0 exactly for constants.  ``roots`` holds the
    slot of each root of the program and ``cells`` the grid cells all
    slots would fill when broadcast.  Meeting ^-1 on a structure without
    an inverse table raises MissingInverseTable before anything is
    evaluated.
    """
    n = s.size
    tables = (s._add, s._mul, s._neg, s._inv)
    ops, uses, names, slots = [], [], [], []
    consed = {}
    cells = 0
    for kind, a, b in program.shapes:
        if kind is Var:
            op, mask = _VAR, 1 << len(names)
        elif kind is Zero or kind is One:
            op, a, mask = _CONST, s.zero if kind is Zero else s.one, 0
        else:
            op = _OPS[kind]
            if op == _INV and s._inv is None:
                raise MissingInverseTable(
                    f"{s.name} has no inverse table but the term uses ^-1"
                )
            a, b = slots[a], None if b is None else slots[b]
            mask = uses[a] if b is None else uses[a] | uses[b]
            if not mask:
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
        slots.append(slot)
    return ops, uses, names, [slots[r] for r in program.roots], cells


def _broadcast_eval(s, ops, env):
    """The values of the slots, by table lookups over broadcast axes.  env
    maps each variable to its value: an int when it is pinned, else its
    values along its own axis."""
    tables = (s._add, s._mul, s._neg, s._inv)
    # An int32 scalar: numpy multiplies arrays by it faster than by an int.
    n = np.int32(s.size)
    vals = []
    for op, a, b in ops:
        if op < _NEG:
            vals.append(tables[op].take(vals[a] * n + vals[b]))
        elif op < _VAR:
            vals.append(tables[op].take(vals[a]))
        else:
            vals.append(a if op == _CONST else env[a])
    return vals


def _plan(formula):
    """What a check needs of a formula besides its program, kept on the
    formula as its program is: whether every atom is an equation, the
    variables in sorted order, and one test per atom.  tests[0] marks
    where the conclusion fails, the others where a premise holds; the
    falsifiers are where every test is true."""
    try:
        return formula._plan
    except AttributeError:
        conclusion, premises = formula.conclusion, formula.premises
        plan = (
            all(isinstance(atom, Equation) for atom in (conclusion, *premises)),
            sorted(formula.variables()),
            (np.not_equal if isinstance(conclusion, Equation) else np.equal,
             *(np.equal if isinstance(p, Equation) else np.not_equal
               for p in premises)),
        )
        object.__setattr__(formula, "_plan", plan)
        return plan


def _search(s, ops, uses, names, roots, plan, cells):
    """The least falsifier of a compiled formula, or None.

    With the variables in sorted order, a prefix of them is pinned, value
    by value, and the next one, the head, runs in blocks of consecutive
    values; pins and blocks both ascend, so the first block with a
    falsifier holds the least one.  cells counts the grid cells of all
    slots (_compile): when those int32 cells and two boolean masks over
    the grid fit _BLOCK_BYTES, or the formula is closed, the grid is one
    block and nothing is pinned.  Otherwise the prefix is the shortest one
    for which one head value fits _BLOCK_BYTES, counting an int32 array
    over the rest of the grid for every slot that uses the head or a later
    variable, and two boolean masks; a block holds as many head values as
    fit.  When the grid costs more than folding its slots would
    (_FOLD_CELLS_PER_SLOT), the first pin's head value 0 is a block of its
    own, and that pin's blocks go on from 1: the least assignments are
    tried first, for the price of one more pass.
    """
    n = s.size
    _, order, tests = plan
    depth, width = 0, n
    if names and 4 * cells + 2 * n ** len(names) > _BLOCK_BYTES:
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
    kept = s._kept
    axes = kept.axes
    if len(axes) < len(free):
        # Replaced whole, never grown in place, so that a check in another
        # thread reads one complete list or the other.
        axes = kept.axes = [
            np.arange(n, dtype=np.int32).reshape((-1,) + (1,) * j)
            for j in range(len(free))
        ]
    # free[i] runs along axis i of len(free): n values followed by
    # len(free) - 1 - i axes of length 1.
    env = dict(zip(free, axes[len(free) - 1::-1]))
    # The head's values in blocks of width, as views of its axis.
    head, blocks = None, [None]  # a closed formula is one block
    if free:
        head, axis = free[0], env[free[0]]
        if width < n:
            blocks = [axis[a:a + width] for a in range(0, n, width)]
        else:
            blocks = [axis]
    first = blocks
    if free and cells > len(ops) * _FOLD_CELLS_PER_SLOT:
        first = [axis[:1], *(axis[a:a + width] for a in range(1, n, width))]
    if not depth:
        return _search_blocks(s, ops, roots, tests, order, env, head, first)
    for pins in itertools.product(range(n), repeat=depth):
        env.update(zip(order, pins))
        witness = _search_blocks(s, ops, roots, tests, order, env, head, first)
        if witness is not None:
            return witness
        first = blocks
    return None


def _search_blocks(s, ops, roots, tests, order, env, head, blocks):
    """The least falsifier in the blocks of one pin, each an ascending
    run of the head's values, in order; None if they hold none."""
    for block in blocks:
        if head is not None:
            env[head] = block
        vals = _broadcast_eval(s, ops, env)
        bad = tests[0](vals[roots[0]], vals[roots[1]])
        for k in range(1, len(tests)):
            bad = bad & tests[k](vals[roots[2 * k]], vals[roots[2 * k + 1]])
        if np.count_nonzero(bad):
            # Every variable occurs in a test, so bad spans the block.
            cell = np.unravel_index(int(bad.argmax()), bad.shape)
            return {
                v: int(np.broadcast_to(env[v], bad.shape)[cell]) for v in order
            }
    return None


def _fields(s):
    """What decompose validates about s: whether s is itself a
    zero-totalized field, its one component an isomorphism onto the
    canonical field, and the distinct canonical field factors of s when it
    has several components; (False, ()) when decompose refuses s.  Computed
    once per structure and kept on it, without the canonical copy of a
    field.  Each factor is a canonical field, so it keeps (True, ()) from
    the start.  The checker asks for it only when the certificate it makes
    possible, with this decompose, is expected to cost less than the grid
    (_find_falsifier)."""
    kept = s._kept
    if kept.fields is None:
        from .finite_meadows import decompose  # it imports this module

        try:
            components = decompose(s).components
        except (MeadowError, ValueError):
            components = ()
        factors = tuple({h.target.name: h.target for h in components}.values())
        kept.fields = (len(components) == 1, factors if len(components) > 1 else ())
        for f in kept.fields[1]:
            f._kept.fields = (True, ())
    return kept.fields


def field_factors(s: FiniteStructure) -> tuple[FiniteStructure, ...]:
    """The distinct canonical field factors of s, one per name, on which
    the checker decides equations and quasi-identities of s whose grid
    costs more than checking them on every factor; () when s is a field,
    has no field component, or decompose refuses it.  A field has none:
    the checker decides an equation on it by polynomials instead.
    Computed once per structure and kept on it."""
    return _fields(s)[1]


# What the checker expects each route to cost, in grid cells: the block
# search fills a cell in about 3 ns on grids of 10^4 to 10^6 cells (2.5-4.5
# ns on Md_23 to Md_199; Python 3.11, numpy 2.4, on a 2-core Xeon), so the
# cells that _compile counts are the grid's cost.  A certificate is tried
# only when the grid costs more than it, the one-off decompose included:
# - the polynomial fold takes about 1.7 us per slot of the MD laws, and
#   its products are bounded by _CELLS_PER_PRODUCT below;
# - a factor takes one _compile and one search, or fold, of its own, about
#   3 us per slot over MD laws, derived identities and encodings of
#   seeded conditionals (120 us for a 40-slot encoding);
# - decompose, on a structure that does not keep its fields yet, takes
#   0.5 ms on Md_15 to 8 ms on Md_210, about 0.4 ms and 90 ns per entry of
#   a table, more with more components.  So a check made once, on a fresh
#   Md_30, does not pay 1.4 ms of decompose to spare 0.13 ms of grid.  The
#   price is dropped once the structure's equational checks have spent
#   that many cells on their grids (_Kept.spent): from then on a session
#   that keeps checking the structure has paid for the decompose, and at
#   most doubles what its grids cost it.
# Only "holds" comes from a certificate, so the constants move time, never
# a verdict or a witness.
_FOLD_CELLS_PER_SLOT = 600
_FACTOR_CELLS_PER_SLOT = 1000
_DECOMPOSE_CELLS = 150_000
_DECOMPOSE_CELLS_PER_ENTRY = 30

# Products the polynomial fold may form: one per this many grid cells.  A
# monomial product costs about 1 us and the block search 2.5-4.5 ns per cell
# (Md_199, Python 3.11 on a 2-core Xeon), so a fold that gives up has spent
# at most about a third of the time of the grid that then decides.
_CELLS_PER_PRODUCT = 1000


def _same_polynomial(s, ops, uses, roots, cells):
    """Whether the two roots of a compiled equation are one polynomial over
    the zero-totalized field s, so that the equation holds on s.

    Over a field of q elements every function of k variables is exactly one
    polynomial of degree below q in each variable.  Here a polynomial is a
    dict from exponent tuples, exponent d for the variable of bit d, to
    nonzero coefficients: elements of s, added and multiplied by its
    tables.  As x^q = x, an exponent e >= 1 reduces to ((e-1) mod (q-1)) + 1.
    In a zero-totalized field x^-1 = x^(2q-3), which is 0 at 0, so the
    inverse of a monomial c*x^a is c^-1 * x^(a(2q-3)), reduced.  The fold
    gives up, and answers False, at the inverse of a sum, and before it
    forms more than cells // _CELLS_PER_PRODUCT monomial products.
    """
    q, zero = s.size, s.zero
    add, mul, neg, inv = s._add.item, s._mul.item, s._neg.item, s._inv.item
    k = max(uses).bit_length()
    budget = cells // _CELLS_PER_PRODUCT
    polys = []
    for (op, a, b), mask in zip(ops, uses):
        if op == _CONST:
            poly = {(0,) * k: a} if a != zero else {}
        elif op == _VAR:
            poly = {tuple(mask >> d & 1 for d in range(k)): s.one}
        elif op == _NEG:
            poly = {m: neg(c) for m, c in polys[a].items()}
        elif op == _INV:
            if len(polys[a]) > 1:
                return False
            poly = {
                tuple((e * (2 * q - 3) - 1) % (q - 1) + 1 if e else 0 for e in m):
                inv(c) for m, c in polys[a].items()
            }
        elif op == _ADD:
            poly = dict(polys[a])
            for m, c in polys[b].items():
                poly[m] = add(poly.get(m, zero), c)
        else:
            left, right = polys[a], polys[b]
            budget -= len(left) * len(right)
            if budget < 0:
                return False
            poly = {}
            for m, c in left.items():
                for n, d in right.items():
                    # Reduced exponents sum to at most 2q-2.
                    key = tuple(
                        e if e < q else e - q + 1 for e in map(int.__add__, m, n)
                    )
                    poly[key] = add(poly.get(key, zero), mul(c, d))
        if op == _ADD or op == _MUL:
            poly = {m: c for m, c in poly.items() if c != zero}
        polys.append(poly)
    return polys[roots[0]] == polys[roots[1]]


def _find_falsifier(s, formula):
    """Least assignment satisfying all premises but not the conclusion.

    Returns None when no such assignment exists.  Variables are ordered by
    name, which fixes the lexicographic order.  The formula's program is
    folded on s (_compile) and its grid searched (_search).  When every
    atom is an equation, a zero-totalized field may certify that the
    formula holds first: an equation on s itself when s is a field and
    both sides fold to one polynomial (_same_polynomial), or the formula on
    every field factor of s, each decided the same way.  A certificate is
    tried only when the grid's cells exceed its expected cost in cells:
    the fold, or each factor's check, per slot, and the decompose of s
    while s does not keep its fields yet and its equational checks have
    spent fewer grid cells than that decompose costs.  Which certificate s
    admits is known only after that decompose, so the cheaper one sets the
    first gate, and the factors are gated again by their number.  A field
    has no field factors, so the recursion stops there.
    """
    equational, _, _ = plan = _plan(formula)
    ops, uses, names, roots, cells = _compile(s, formula.program)
    if equational:
        kept = s._kept
        slots = len(ops)
        least = slots * (
            _FACTOR_CELLS_PER_SLOT if formula.premises else _FOLD_CELLS_PER_SLOT
        )
        if kept.fields is None:
            price = _DECOMPOSE_CELLS + _DECOMPOSE_CELLS_PER_ENTRY * s.size**2
            if kept.spent < price:
                least += price
        if cells > least:
            if (
                not formula.premises and _fields(s)[0]
                and _same_polynomial(s, ops, uses, roots, cells)
            ):
                return None
            factors = field_factors(s)
            if (
                factors and cells > len(factors) * slots * _FACTOR_CELLS_PER_SLOT
                and all(_find_falsifier(f, formula) is None for f in factors)
            ):
                return None
        kept.spent += cells
    return _search(s, ops, uses, names, roots, plan, cells)


def check_equation(s: FiniteStructure, eq: Equation) -> Verdict:
    """Decide whether lhs = rhs holds under every assignment, by exhaustion."""
    return check_conditional(s, eq)


def check_conditional(
    s: FiniteStructure, formula: Atom | ConditionalEquation
) -> Verdict:
    """Decide a formula: every assignment satisfying the premises must
    satisfy the conclusion.  Premises and conclusion may be disequations;
    an atom has no premises."""
    witness = _find_falsifier(s, formula)
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
