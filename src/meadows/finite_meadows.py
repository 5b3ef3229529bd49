"""Constructors and classification for finite meadows.

``build_mdk(k)`` realizes the minimal meadow of characteristic radical(k):
modular arithmetic on Z/r for the squarefree radical r of k, expanded with
the unique inverse making the restricted inverse law hold.  A modulus with
a repeated prime factor collapses: if p*p divides k then in any structure
satisfying the defining equations p*q = p*p*p^-1*q = k*p^-1 = 0, so the
characteristic drops to the radical.  Constructors therefore return the
radical's meadow and record the requested k in the descriptor.

Prime fields get the zero-totalized inverse directly; non-prime finite
fields are built as polynomial quotients over Z/p modulo the smallest monic
irreducible of the right degree, so tables are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionNotFound, MissingInverseTable, NotAMeadow, NotPrime,
    SizeOverflow, UniquenessViolated,
)
from .structures import (
    FiniteStructure, Homomorphism, characteristic, find_homomorphisms,
    idempotents, is_minimal, principal_ideal, product, product_index,
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
    r = 1
    for p in distinct_primes(k):
        r *= p
    return r


def is_squarefree(k: int) -> bool:
    return k >= 1 and radical(k) == k


def build_prime_field(p: int) -> FiniteStructure:
    """The zero-totalized prime field Z_p: mod-p tables with 0^-1 = 0."""
    if not is_prime(p):
        raise NotPrime(p)
    idx = list(range(p))
    return FiniteStructure(
        name=f"Z_{p}",
        size=p,
        zero=0,
        one=1 % p,
        add=tuple(tuple((a + b) % p for b in idx) for a in idx),
        mul=tuple(tuple((a * b) % p for b in idx) for a in idx),
        neg=tuple((-a) % p for a in idx),
        inv=tuple(0 if a == 0 else pow(a, p - 2, p) for a in idx),
    )


def build_mdk(k: int) -> FiniteStructure:
    """The minimal meadow of characteristic radical(k), on Z/radical(k).

    The inverse table holds, for each x, the unique y with x*x*y = x and
    y*y*x = y; a scan finds it and asserts uniqueness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    r = radical(k)
    if r == 1:
        return FiniteStructure("Md_1", 1, 0, 0, ((0,),), ((0,),), (0,), (0,))
    idx = np.arange(r)
    add = (idx[:, None] + idx[None, :]) % r
    mul = (idx[:, None] * idx[None, :]) % r
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
    inv = both.argmax(axis=1)
    return FiniteStructure(
        name=f"Md_{r}",
        size=r,
        zero=0,
        one=1,
        add=tuple(map(tuple, add.tolist())),
        mul=tuple(map(tuple, mul.tolist())),
        neg=tuple(neg.tolist()),
        inv=tuple(int(v) for v in inv.tolist()),
    )


def mdk_descriptor(k: int) -> MeadowDescriptor:
    return MeadowDescriptor("mdk", (k, radical(k)), build_mdk(k))


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

def _poly_trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
        for i in range(n)
    ])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


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


def _poly_inv(a, modulus, p):
    # Extended Euclid in Z/p[x]; a must be nonzero modulo an irreducible.
    r0, r1 = tuple(modulus), tuple(a)
    s0, s1 = (), (1,)
    while r1:
        # r0 = q*r1 + rem
        q = []
        rem = list(r0)
        lead_inv = pow(r1[-1], p - 2, p)
        q = [0] * max(len(rem) - len(r1) + 1, 0)
        while len(rem) >= len(r1):
            factor = (rem[-1] * lead_inv) % p
            shift = len(rem) - len(r1)
            q[shift] = factor
            for i, bi in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - factor * bi) % p
            del rem[-1]
            while rem and rem[-1] == 0:
                rem.pop()
        r0, r1 = r1, _poly_trim(rem)
        qs1 = _poly_mul(_poly_trim(q), s1, p)
        new_s = _poly_add(s0, [(-c) % p for c in qs1], p)
        s0, s1 = s1, new_s
    # r0 is a nonzero constant gcd; scale s0 by its inverse.
    scale = pow(r0[0], p - 2, p)
    return _poly_trim([(c * scale) % p for c in s0])


def _encode(poly, p) -> int:
    out = 0
    for c in reversed(poly):
        out = out * p + c
    return out


def _decode(e: int, p: int) -> tuple[int, ...]:
    cs = []
    while e:
        cs.append(e % p)
        e //= p
    return tuple(cs)


def least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The smallest monic irreducible of degree m over Z/p.

    Candidates x^m + c are ordered by the value of their lower coefficients
    as a base-p number with the x^(m-1) coefficient most significant, i.e.
    lexicographically on descending powers.  Irreducibility is decided by
    trial division against every monic polynomial of degree up to m/2.
    """
    if not is_prime(p):
        raise NotPrime(p)
    if m < 1:
        raise ValueError("degree must be positive")
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


def build_galois_field(
    p: int, m: int, carrier_bound: int = 10**6
) -> FiniteStructure:
    """GF(p^m): polynomials over Z/p of degree < m, encoded base p,
    multiplied modulo the least monic irreducible of degree m."""
    if not is_prime(p):
        raise NotPrime(p)
    if m < 1:
        raise ValueError("degree must be positive")
    n = p**m
    if n > carrier_bound:
        raise SizeOverflow(f"GF({p}^{m}) exceeds carrier bound {carrier_bound}")
    modulus = least_irreducible(p, m)
    polys = [_decode(e, p) for e in range(n)]

    def mul_entry(a, b):
        return _encode(_poly_mod(_poly_mul(a, b, p), modulus, p), p)

    return FiniteStructure(
        name=f"GF({p}^{m})",
        size=n,
        zero=0,
        one=1,
        add=tuple(
            tuple(_encode(_poly_add(a, b, p), p) for b in polys) for a in polys
        ),
        mul=tuple(tuple(mul_entry(a, b) for b in polys) for a in polys),
        neg=tuple(_encode(tuple((-c) % p for c in a), p) for a in polys),
        inv=tuple(
            0 if not a else _encode(_poly_inv(a, modulus, p), p) for a in polys
        ),
    )


def galois_descriptor(p: int, m: int) -> MeadowDescriptor:
    return MeadowDescriptor(
        "galois_field", (p, m, least_irreducible(p, m)), build_galois_field(p, m)
    )


# --- decomposition into fields ---------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """One field component per primitive idempotent, plus the diagonal
    isomorphism onto their product."""

    components: tuple[Homomorphism, ...]
    product: FiniteStructure
    diagonal: Homomorphism


def _field_component(s: FiniteStructure, e: int) -> Homomorphism:
    # The ideal e*s is a field; map it onto the canonical field of its size.
    ideal = principal_ideal(s, e)
    n = ideal.ring.size
    p = distinct_primes(n)[0]
    m = len(_decode(n, p)) - 1  # p^m has m+1 digits in base p
    if p**m != n:
        raise DecompositionNotFound(f"ideal of {e} has size {n}, not p^m")
    field_ = build_prime_field(p) if m == 1 else build_galois_field(p, m)
    isos = find_homomorphisms(ideal.ring, field_)
    if not isos:
        raise DecompositionNotFound(f"ideal of {e} is not {field_.name}")
    return Homomorphism(
        s, field_, tuple(isos[0](ideal.projection(y)) for y in range(s.size))
    )


def decompose(s: FiniteStructure) -> Decomposition:
    """Write a non-trivial finite meadow as a product of zero-totalized
    fields, by the structure theorem.

    Each primitive idempotent e (minimal among the nonzero idempotents)
    cuts out the field e*s; its component is y |-> e*y followed by an
    isomorphism onto the canonical field of that size.  Any input that is
    not a non-trivial meadow raises DecompositionNotFound.
    """
    if s.inv is None:
        raise MissingInverseTable(f"{s.name} has no inverse table")
    if s.zero == s.one:
        raise DecompositionNotFound(
            "the one-element meadow has no nonzero idempotent, so no field"
        )
    nonzero = [e for e in idempotents(s) if e != s.zero]
    primitive = [
        e for e in nonzero
        if not any(f != e and s.mul[f][e] == f for f in nonzero)
    ]
    try:
        components = tuple(sorted(
            (_field_component(s, e) for e in primitive),
            key=lambda h: (h.target.size, h.mapping),
        ))
        targets = [h.target for h in components]
        prod = product(targets)  # ValueError when there is no component
    except (NotAMeadow, ValueError) as exc:
        raise DecompositionNotFound(f"{s.name} is not a meadow: {exc}") from None
    sizes = [t.size for t in targets]
    diagonal = Homomorphism(
        s,
        prod,
        tuple(
            product_index([h(z) for h in components], sizes)
            for z in range(s.size)
        ),
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
    rows = []
    for k in range(1, up_to + 1):
        if not is_squarefree(k):
            continue
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
