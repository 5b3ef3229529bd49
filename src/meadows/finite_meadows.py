"""Constructors and classification for finite meadows.

``build_mdk(k)`` realizes the minimal meadow of characteristic radical(k):
modular arithmetic on Z/r for the squarefree radical r of k, expanded with
the unique inverse making the restricted inverse law hold.  A modulus with
a repeated prime factor collapses: if p*p divides k then in any structure
satisfying the defining equations p*q = p*p*p^-1*q = k*p^-1 = 0, so the
characteristic drops to the radical.  Constructors therefore return the
radical's meadow and record the requested k in the descriptor.

Prime fields get the zero-totalized inverse directly.  GF(p^m) is Z/p[x]
modulo the smallest monic irreducible of degree m, so tables are
reproducible across runs; its elements are their base-p digit vectors, and
the tables are computed digitwise on whole numpy arrays.  ``decompose``
sends each field component onto that canonical field through a root of the
same modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionNotFound, MissingInverseTable, NotAMeadow, NotPrime,
    SizeOverflow, UniquenessViolated,
)
from .structures import (
    MAX_TABLE_ENTRIES, FiniteStructure, Homomorphism, characteristic,
    check_table_bound, idempotents, is_minimal, principal_ideal, product,
)

__all__ = [
    "MeadowDescriptor", "Decomposition", "MinimalMeadowRow",
    "is_prime", "distinct_primes", "radical", "is_squarefree",
    "build_prime_field", "build_mdk", "mdk_descriptor",
    "inverse_by_power_cycle",
    "least_irreducible", "build_galois_field", "galois_descriptor",
    "decompose", "classify_minimal",
]


@dataclass(frozen=True)
class MeadowDescriptor:
    """How a structure was constructed, plus the realized tables."""

    kind: str  # "mdk" | "prime_field" | "galois_field" | "product" | "subalgebra"
    params: tuple
    realized: FiniteStructure


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def distinct_primes(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def radical(k: int) -> int:
    """Product of the distinct primes of k; radical(1) = 1."""
    return math.prod(distinct_primes(k))


def is_squarefree(k: int) -> bool:
    return k >= 1 and radical(k) == k


# The largest carrier whose tables fit MAX_TABLE_ENTRIES, and the product of
# the primes up to it.  The constructors check the bound before any trial
# division, whose time grows with the square root of the modulus.
_MAX_CARRIER = math.isqrt(MAX_TABLE_ENTRIES)
_SMALL_PRIMES = math.prod(p for p in range(_MAX_CARRIER + 1) if is_prime(p))


def build_prime_field(p: int) -> FiniteStructure:
    """The zero-totalized prime field Z_p: mod-p tables with 0^-1 = 0, which
    are the tables of Md_p."""
    check_table_bound(max(p, 1), f"Z_{p}")  # is_prime refuses p < 2 at once
    if not is_prime(p):
        raise NotPrime(p)
    return _modular_meadow(p, f"Z_{p}")


def build_mdk(k: int) -> FiniteStructure:
    """The minimal meadow of characteristic radical(k), on Z/radical(k)."""
    if k < 1:
        raise ValueError("k must be positive")
    # radical(k) without trial division: r collects the primes of k up to
    # the carrier bound, and what is left of k once they are divided out
    # has only larger primes.
    r, rest = math.gcd(k, _SMALL_PRIMES), k
    while (common := math.gcd(rest, r)) > 1:
        rest //= common
    if rest > 1:
        raise SizeOverflow(f"radical(k) has a prime above the bound of {_MAX_CARRIER}")
    return _modular_meadow(r, f"Md_{r}")


def _modular_meadow(r: int, name: str) -> FiniteStructure:
    # Z/r for squarefree r.  The inverse table holds, for each x, the unique
    # y with x*x*y = x and y*y*x = y; a scan finds it and asserts uniqueness.
    check_table_bound(r, name)
    idx = np.arange(r, dtype=np.int32)
    # Computed in place and handed over read-only, so that the structure
    # keeps these arrays and not copies: the heap holes that temporary
    # tables leave between kept ones stay resident, about 7 MB over the
    # squarefree Md_k up to 210.
    add = idx[:, None] + idx[None, :]
    add %= r
    mul = idx[:, None] * idx[None, :]
    mul %= r
    add.flags.writeable = mul.flags.writeable = False
    neg = (-idx) % r
    xx = (idx * idx) % r
    double_left = (xx[:, None] * idx[None, :]) % r == idx[:, None]   # x*x*y == x
    double_right = (xx[None, :] * idx[:, None]) % r == idx[None, :]  # y*y*x == y
    both = double_left & double_right
    counts = both.sum(axis=1)
    if not (counts == 1).all():
        raise UniquenessViolated(
            f"double pseudoinverse not unique modulo {r}"
        )  # pragma: no cover - impossible for squarefree r
    return FiniteStructure(
        name=name, size=r, zero=0, one=1 % r,
        add=add, mul=mul, neg=neg, inv=both.argmax(axis=1),
    )


def mdk_descriptor(k: int) -> MeadowDescriptor:
    s = build_mdk(k)  # on Z/radical(k), bounded before any trial division
    return MeadowDescriptor("mdk", (k, s.size), s)


def inverse_by_power_cycle(n: int, k: int) -> int:
    """The meadow inverse of n modulo squarefree k, read off the power cycle.

    The powers n^0, n^1, ... repeat modulo k; with n^K = n^L, K > L+1 >= 1,
    the inverse is n^(K-1-L).  When the first repeat has period one the
    repeat index is pushed out by one, which keeps the exponent positive.
    """
    if not is_squarefree(k):
        raise ValueError(f"{k} is not squarefree")
    if not 0 <= n < k:
        raise ValueError(f"{n} is not an element modulo {k}")
    if n == 0:
        return 0
    seen = {1: 0}
    value, exponent = 1, 0
    while True:
        value = (value * n) % k
        exponent += 1
        if value in seen:
            first = seen[value]
            break
        seen[value] = exponent
    if exponent - first == 1:
        exponent += 1
    return pow(n, exponent - 1 - first, k)


# --- Galois fields ---------------------------------------------------------
#
# Polynomials over Z/p are little-endian coefficient tuples without trailing
# zeros; an element of GF(p^m) is encoded as sum(c_i * p^i).

def _poly_mod(a, b, p):
    a = list(a)
    lead_inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        factor = (a[-1] * lead_inv) % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        del a[-1]
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _decode(e: int, p: int) -> tuple[int, ...]:
    cs = []
    while e:
        cs.append(e % p)
        e //= p
    return tuple(cs)


def _digits(n: int, p: int, m: int) -> np.ndarray:
    # The base-p digits of 0..n-1, little-endian: an n x m int32 array.
    weights = np.int32(p) ** np.arange(m, dtype=np.int32)
    return (np.arange(n, dtype=np.int32)[:, None] // weights) % np.int32(p)


def least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The smallest monic irreducible of degree m over Z/p.

    Candidates x^m + c are ordered by the value of their lower coefficients
    as a base-p number with the x^(m-1) coefficient most significant, i.e.
    lexicographically on descending powers.  Irreducibility is decided by
    trial division against every monic polynomial of degree up to m/2, so
    the degree, the carrier bound and p are checked first, in that order.
    """
    if m < 1:
        raise ValueError("degree must be positive")
    # Without p^m in full: for p >= 2, p^m exceeds the bound once m reaches
    # its bit length.
    if p > 1 and (m >= _MAX_CARRIER.bit_length() or p**m > _MAX_CARRIER):
        raise SizeOverflow(f"GF({p}^{m}) is above the bound of {_MAX_CARRIER} elements")
    if not is_prime(p):
        raise NotPrime(p)
    divisor_degrees = range(1, m // 2 + 1)
    for t in range(p**m):
        low = _decode(t, p)
        candidate = low + (0,) * (m - len(low)) + (1,)
        reducible = False
        for d in divisor_degrees:
            for u in range(p**d):
                low_u = _decode(u, p)
                g = low_u + (0,) * (d - len(low_u)) + (1,)
                if not _poly_mod(candidate, g, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return candidate
    raise RuntimeError("unreachable: irreducibles exist in every degree")  # pragma: no cover


def build_galois_field(p: int, m: int) -> FiniteStructure:
    """GF(p^m): polynomials over Z/p of degree < m, encoded base p,
    multiplied modulo the least monic irreducible of degree m.

    The tables are built digit by digit on the n x m array of all digits:
    addition and negation digitwise mod p; multiplication from the digits
    of x^i * b for every b, reduced by x^m = -(lower coefficients of the
    modulus), so digit j of a*b is sum_i a_i * (x^i * b)_j mod p.  The
    inverse of a != 0 is the b with a*b = 1, and 0^-1 = 0.
    """
    modulus = least_irreducible(p, m)  # checks m, the bound and p first
    n = p**m
    digits = _digits(n, p, m)
    weights = np.int32(p) ** np.arange(m, dtype=np.int32)
    add = np.zeros((n, n), dtype=np.int32)
    mul = np.zeros((n, n), dtype=np.int32)
    term = np.empty((n, n), dtype=np.int32)  # one scratch table, reused
    for j in range(m):
        d = digits[:, j]
        np.add(d[:, None], d[None, :], out=term)
        term %= p
        term *= weights[j]
        add += term
    neg = ((-digits) % p) @ weights
    # shifted[i] holds the digits of x^i * b, one row per b.
    reduction = np.array([(-c) % p for c in modulus[:m]], dtype=np.int32)
    shifted = [digits]
    for _ in range(m - 1):
        prev = shifted[-1]
        up = np.zeros_like(prev)
        up[:, 1:] = prev[:, :-1]
        shifted.append((up + prev[:, -1:] * reduction) % p)
    stacked = np.stack(shifted)  # (i, b, j)
    for j in range(m):
        np.matmul(digits, stacked[:, :, j], out=term)
        term %= p
        term *= weights[j]
        mul += term
    del term, shifted, stacked  # freed before the tables are converted
    inv = (mul == 1).argmax(axis=1)
    inv[0] = 0
    return FiniteStructure(
        name=f"GF({p}^{m})", size=n, zero=0, one=1,
        add=add, mul=mul, neg=neg, inv=inv,
    )


def galois_descriptor(p: int, m: int) -> MeadowDescriptor:
    field_ = build_galois_field(p, m)
    return MeadowDescriptor("galois_field", (p, m, least_irreducible(p, m)), field_)


# --- decomposition into fields ---------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """One field component per primitive idempotent, plus the diagonal
    isomorphism onto their product."""

    components: tuple[Homomorphism, ...]
    product: FiniteStructure
    diagonal: Homomorphism


def _field_component(s: FiniteStructure, e: int) -> Homomorphism:
    # The ideal e*s is a field F of size p^m; map it onto the canonical field
    # K = Z/p[x]/(f), f = least_irreducible(p, m).  Each root r of f in F
    # gives the isomorphism sum(c_i x^i) |-> sum(c_i r^i) from K onto F, so
    # F has m isomorphisms onto K and no search is needed.  Keep the least:
    # it has the least images of generating_set(F), so it is the one a
    # search over generator images would find first.  Isomorphisms that
    # agree on g_0..g_{j-1} agree on all they generate, every element below
    # g_j included, so two of them first differ at a generator.
    ideal = principal_ideal(s, e)
    ring = ideal.ring
    n = ring.size
    p = distinct_primes(n)[0]
    m = len(_decode(n, p)) - 1  # p^m has m+1 digits in base p
    if p**m != n:
        raise DecompositionNotFound(f"ideal of {e} has size {n}, not p^m")
    field_ = build_prime_field(p) if m == 1 else build_galois_field(p, m)
    add, mul = ring._add, ring._mul
    numerals = np.full(p, ring.zero, dtype=np.int32)  # c |-> c*1 in F
    for c in range(1, p):
        numerals[c] = add[numerals[c - 1], ring.one]
    elements = np.arange(n, dtype=np.int32)
    value = np.full(n, numerals[1], dtype=np.int32)  # f(r) for every r, by Horner
    for c in reversed(least_irreducible(p, m)[:-1]):
        value = add[mul[value, elements], numerals[c]]
    digits = _digits(n, p, m)
    candidates = []
    for r in np.flatnonzero(value == ring.zero):
        image = np.full(n, ring.zero, dtype=np.int32)  # K -> F
        power = ring.one
        for i in range(m):
            image = add[image, mul[numerals[digits[:, i]], power]]
            power = mul[power, r]
        if np.bincount(image, minlength=n).all():  # image is onto F
            back = np.empty(n, dtype=np.int32)
            back[image] = elements
            candidates.append(back)
    # The candidates are isomorphisms all or none: F is a field with the
    # zero-totalized inverse or it is not, so checking the first suffices.
    if candidates:
        back = min(candidates, key=lambda c: c.tolist())
        try:
            return Homomorphism(
                s, field_, back[np.asarray(ideal.projection.mapping)]
            )
        except ValueError:
            pass
    raise DecompositionNotFound(f"ideal of {e} is not {field_.name}")


def decompose(s: FiniteStructure) -> Decomposition:
    """Write a non-trivial finite meadow as a product of zero-totalized
    fields, by the structure theorem.

    Each primitive idempotent e (minimal among the nonzero idempotents)
    cuts out the field e*s; its component is y |-> e*y followed by an
    isomorphism onto the canonical field of that size.  Any input that is
    not a non-trivial meadow raises DecompositionNotFound.
    """
    if s._inv is None:
        raise MissingInverseTable(f"{s.name} has no inverse table")
    if s.zero == s.one:
        raise DecompositionNotFound(
            "the one-element meadow has no nonzero idempotent, so no field"
        )
    idem = np.array(idempotents(s), dtype=np.int32)
    nonzero = idem[idem != s.zero]
    # under[f, e]: f*e = f.  A primitive e has only itself under it.
    under = s._mul[nonzero[:, None], nonzero] == nonzero[:, None]
    primitive = nonzero[under.sum(axis=0) == 1].tolist()
    try:
        components = tuple(sorted(
            (_field_component(s, e) for e in primitive),
            key=lambda h: (h.target.size, h.mapping),
        ))
        targets = [h.target for h in components]
        prod = product(targets)  # ValueError when there is no component
    except (NotAMeadow, ValueError) as exc:
        raise DecompositionNotFound(f"{s.name} is not a meadow: {exc}") from None
    # z |-> the product element with coordinates h(z), in mixed radix.
    radix = np.cumprod([1, *(t.size for t in targets[:-1])])
    diagonal = Homomorphism(
        s, prod, radix @ np.array([h.mapping for h in components])
    )
    if not diagonal.is_injective:
        raise DecompositionNotFound(
            f"diagonal map of {s.name} is not injective"
        )
    return Decomposition(components, prod, diagonal)


# --- survey of minimal meadows ----------------------------------------------

@dataclass(frozen=True)
class MinimalMeadowRow:
    k: int
    size: int
    characteristic: int
    minimal: bool
    field: bool
    structure: FiniteStructure


def classify_minimal(up_to: int) -> list[MinimalMeadowRow]:
    """One row per squarefree k <= up_to: the minimal meadow of that
    characteristic, whether it is minimal (it is) and whether it is a field
    (exactly for prime k: its only idempotents are 0 and 1)."""
    ks = []
    for k in range(1, up_to + 1):
        if is_squarefree(k):
            # Refuse a bound past the table limit before building anything.
            check_table_bound(k, f"Md_{k}")
            ks.append(k)
    rows = []
    for k in ks:
        s = build_mdk(k)
        rows.append(
            MinimalMeadowRow(
                k=k,
                size=s.size,
                characteristic=characteristic(s),
                minimal=is_minimal(s),
                field=len(idempotents(s)) == 2,
                structure=s,
            )
        )
    return rows
