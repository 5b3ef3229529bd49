import random
import time

import pytest

from meadows import (
    MAX_TABLE_ENTRIES, MD, DecompositionNotFound, FiniteStructure,
    Homomorphism, MissingInverseTable, NotPrime, SizeOverflow,
    build_galois_field, build_mdk, build_prime_field, characteristic,
    check_axiom_set, check_equation, classify_minimal, decompose,
    distinct_primes, dump_structure, find_homomorphisms, galois_descriptor,
    generating_set, idempotents,
    inverse_by_power_cycle, is_meadow, is_minimal, is_prime, is_squarefree,
    is_zt_field, least_irreducible, ln_equation, mdk_descriptor,
    parse_equation, principal_ideal, product, radical, zmod_ring,
)

Z2 = build_prime_field(2)
Z3 = build_prime_field(3)
GF4 = build_galois_field(2, 2)


class TestNumberTheoryHelpers:
    def test_primes(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_distinct_primes(self):
        assert distinct_primes(360) == [2, 3, 5]
        assert distinct_primes(1) == []

    def test_radical(self):
        assert radical(12) == 6
        assert radical(30) == 30
        assert radical(1) == 1

    def test_squarefree(self):
        assert [k for k in range(1, 16) if is_squarefree(k)] == [
            1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15,
        ]


class TestPrimeFields:
    def test_inverse_table_p2(self):
        assert build_prime_field(2).inv == (0, 1)

    def test_inverse_table_p5_against_brute_force(self):
        # Oracle: x*y = 1 mod 5, with 0 mapped to 0.
        expected = [0]
        for x in range(1, 5):
            expected.append(next(y for y in range(5) if (x * y) % 5 == 1))
        assert tuple(expected) == (0, 1, 3, 2, 4)
        assert build_prime_field(5).inv == (0, 1, 3, 2, 4)

    def test_characteristic_three_satisfies_first_squares_scheme(self):
        assert check_equation(Z3, ln_equation(1)).holds

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 15])
    def test_not_prime(self, n):
        with pytest.raises(NotPrime):
            build_prime_field(n)

    def test_prime_fields_are_zt_fields(self):
        for p in (2, 3, 5, 7):
            assert is_zt_field(build_prime_field(p))


class TestBuildMdk:
    def test_md6_inverse_is_identity(self):
        assert build_mdk(6).inv == (0, 1, 2, 3, 4, 5)

    def test_md10_inverse(self):
        assert build_mdk(10).inv == (0, 1, 8, 7, 4, 5, 6, 3, 2, 9)

    def test_repeated_factors_collapse_to_radical(self):
        md12 = build_mdk(12)
        md6 = build_mdk(6)
        assert md12.size == 6
        homs = find_homomorphisms(md12, md6)
        assert any(h.is_injective and h.is_surjective for h in homs)

    def test_descriptor_records_requested_k_and_radical(self):
        d = mdk_descriptor(12)
        assert d.kind == "mdk"
        assert d.params == (12, 6)
        assert d.realized.size == 6

    def test_trivial(self):
        s = build_mdk(1)
        assert s.size == 1
        assert is_meadow(s)

    def test_prime_case_matches_prime_field_tables(self):
        for p in (2, 3, 5, 7, 11):
            mdp = build_mdk(p)
            zp = build_prime_field(p)
            assert mdp.add == zp.add
            assert mdp.mul == zp.mul
            assert mdp.neg == zp.neg
            assert mdp.inv == zp.inv

    def test_small_mdk_pass_all_meadow_laws(self):
        for k in (1, 2, 6, 10, 15, 30):
            assert is_meadow(build_mdk(k))

    def test_characteristic_equals_radical(self):
        for k in (6, 10, 12, 30, 45):
            assert characteristic(build_mdk(k)) == radical(k)

    @pytest.mark.parametrize(
        "build, arg", [
            (build_mdk, 99991), (build_mdk, 1027), (build_prime_field, 1031),
            (zmod_ring, 1025),
        ], ids=["mdk-99991", "mdk-1027", "zp-1031", "zmod-1025"],
    )
    def test_table_bound_refuses_before_building(self, build, arg):
        # Squarefree or prime, so the carrier has arg elements: above the
        # 1024 of MAX_TABLE_ENTRIES, refused before any table exists.
        import tracemalloc

        assert arg**2 > MAX_TABLE_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(SizeOverflow, match="bound"):
                build(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_squarefree_range_characteristic_and_minimality(self):
        for k in range(1, 211):
            if not is_squarefree(k):
                continue
            s = build_mdk(k)
            assert s.size == k
            assert characteristic(s) == k
            assert is_minimal(s)


class TestPowerCycleInverse:
    def test_two_mod_ten(self):
        assert inverse_by_power_cycle(2, 10) == 8

    def test_zero(self):
        assert inverse_by_power_cycle(0, 6) == 0

    def test_idempotent_like_element(self):
        assert inverse_by_power_cycle(3, 6) == 3

    def test_agrees_with_double_pseudoinverse_scan(self):
        for k in range(1, 211):
            if not is_squarefree(k):
                continue
            table = build_mdk(k).inv
            for n in range(k):
                assert inverse_by_power_cycle(n, k) == table[n], (n, k)

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            inverse_by_power_cycle(2, 12)

    def test_rejects_out_of_range_element(self):
        with pytest.raises(ValueError):
            inverse_by_power_cycle(7, 6)


class TestGaloisFields:
    def test_degree_one_modulus_is_x(self):
        assert least_irreducible(2, 1) == (0, 1)

    def test_degree_two_modulus_over_gf2(self):
        assert least_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1

    def test_degree_three_modulus_over_gf2(self):
        assert least_irreducible(2, 3) == (1, 1, 0, 1)  # x^3+x+1

    def test_degree_two_modulus_over_gf3(self):
        assert least_irreducible(3, 2) == (1, 0, 1)  # x^2+1

    def test_gf2_equals_z2(self):
        gf = build_galois_field(2, 1)
        assert gf.add == Z2.add and gf.mul == Z2.mul
        assert gf.neg == Z2.neg and gf.inv == Z2.inv

    def test_gf3_equals_z3(self):
        gf = build_galois_field(3, 1)
        assert gf.add == Z3.add and gf.mul == Z3.mul

    def test_gf4_inverse_is_square(self):
        gf4 = build_galois_field(2, 2)
        # Oracle: brute force over the four elements.
        for x in range(4):
            assert gf4.inv[x] == gf4.mul[x][x]
        assert check_equation(gf4, parse_equation("inv(x) = x*x")).holds

    def test_gf_fields_are_meadow_fields(self):
        for p, m in ((2, 2), (2, 3), (3, 2), (5, 2)):
            gf = build_galois_field(p, m)
            assert is_zt_field(gf)
            assert characteristic(gf) == p

    def test_descriptor_carries_modulus(self):
        d = galois_descriptor(2, 3)
        assert d.params == (2, 3, (1, 1, 0, 1))

    def test_size_overflow(self):
        with pytest.raises(SizeOverflow):
            build_galois_field(2, 21)

    @pytest.mark.parametrize("p, m", [(2, 11), (3, 7), (1031, 1)])
    def test_table_bound_refuses_before_building(self, p, m):
        # The bound is on table entries, n*n <= 2**20, and is checked before
        # the modulus search or any table exists.
        import tracemalloc

        assert (p**m) ** 2 > MAX_TABLE_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(SizeOverflow, match="bound"):
                build_galois_field(p, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("p, m", [(2, 40), (2, 100000)])
    def test_least_irreducible_refuses_above_the_bound(self, p, m):
        # Trial division over 2^40 candidates would not finish.
        start = time.perf_counter()
        with pytest.raises(SizeOverflow, match="bound"):
            least_irreducible(p, m)
        assert time.perf_counter() - start < 1.0

    def test_least_irreducible_at_the_bound(self):
        assert least_irreducible(2, 10) == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)

    def test_table_bound_boundary(self):
        from meadows.structures import check_table_bound

        check_table_bound(1024, "GF(2^10)")
        with pytest.raises(SizeOverflow):
            check_table_bound(1025, "a structure")

    def test_tables_against_sympy_galoistools(self):
        # Oracle: sympy's dense polynomial arithmetic over Z/p, reducing
        # modulo least_irreducible (checked against sympy above).  Fields up
        # to 64 elements are compared in full, larger ones on 2000 seeded
        # pairs each.
        gt = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        rng = random.Random(11)
        for p in (q for q in range(2, 257) if is_prime(q)):
            m = 1
            while p**m <= 256:
                n = p**m
                gf = build_galois_field(p, m)
                modulus = list(reversed(least_irreducible(p, m)))

                def poly(e):
                    return [(e // p**i) % p for i in reversed(range(m))]

                def code(big_endian):
                    return sum(c * p**i for i, c in enumerate(reversed(big_endian)))

                if n <= 64:
                    pairs = [(a, b) for a in range(n) for b in range(n)]
                else:
                    pairs = [(rng.randrange(n), rng.randrange(n))
                             for _ in range(2000)]
                for a, b in pairs:
                    fa, fb = poly(a), poly(b)
                    product_ = gt.gf_rem(gt.gf_mul(fa, fb, p, ZZ), modulus, p, ZZ)
                    assert gf.mul[a][b] == code(product_), (p, m, a, b)
                    assert gf.add[a][b] == code(gt.gf_add(fa, fb, p, ZZ)), (p, m, a, b)
                for a in range(n):
                    assert code(gt.gf_neg(poly(a), p, ZZ)) == gf.neg[a], (p, m, a)
                    if a:
                        one = gt.gf_rem(gt.gf_mul(poly(a), poly(gf.inv[a]), p, ZZ),
                                        modulus, p, ZZ)
                        assert one == [1], (p, m, a)
                assert gf.inv[0] == 0
                m += 1

    def test_not_prime_base(self):
        with pytest.raises(NotPrime):
            build_galois_field(4, 2)

    def test_least_irreducible_against_sympy(self):
        # Oracle: sympy's irreducibility test over Z/p.  Candidates are
        # ranked by their lower coefficients read as a base-p number with
        # the x^(m-1) coefficient most significant.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def irreducible(coeffs, p):
            return sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible

        for p in (q for q in range(2, 257) if is_prime(q)):
            m = 1
            while p**m <= 256:
                found = least_irreducible(p, m)
                assert len(found) == m + 1 and found[-1] == 1
                assert irreducible(found, p), (p, m, found)
                rank = sum(c * p**i for i, c in enumerate(found[:-1]))
                for smaller in range(rank):
                    low = [(smaller // p**i) % p for i in range(m)]
                    assert not irreducible(low + [1], p), (p, m, low)
                m += 1


class TestDecompose:
    def test_md30_components(self):
        result = decompose(build_mdk(30))
        names = [h.target.name for h in result.components]
        assert names == ["Z_2", "Z_3", "Z_5"]
        assert all(h.is_surjective for h in result.components)
        assert result.diagonal.is_injective
        # Chinese remainder: the diagonal is onto the whole product.
        assert result.product.size == 30
        assert sorted(result.diagonal.mapping) == list(range(30))

    def test_first_decomposition_imports_nothing_cyclic(self):
        # In a fresh interpreter: np.unique imports numpy.ma on first use,
        # and the module objects it leaves are cyclic garbage.
        import subprocess
        import sys

        code = (
            "import gc, sys\n"
            "from meadows import build_mdk, decompose\n"
            "md6 = build_mdk(6)\n"
            "gc.collect()\n"
            "gc.disable()\n"
            "decompose(md6)\n"
            "print(gc.collect(), 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert done.stdout == "0 False\n"

    def test_field_decomposes_as_itself(self):
        z7 = build_prime_field(7)
        result = decompose(z7)
        assert len(result.components) == 1
        assert result.components[0].mapping == tuple(range(7))

    def test_product_decomposes_into_projections(self):
        s = product([Z2, Z3])
        result = decompose(s)
        mappings = sorted(h.mapping for h in result.components)
        # Little-endian index i encodes (i mod 2, i div 2).
        assert mappings == [
            tuple(i // 2 for i in range(6)),
            tuple(i % 2 for i in range(6)),
        ]

    def test_galois_component_is_kept_whole(self):
        gf4 = build_galois_field(2, 2)
        result = decompose(gf4)
        assert [h.target.name for h in result.components] == ["GF(2^2)"]

    def test_trivial_rejected(self):
        with pytest.raises(DecompositionNotFound):
            decompose(build_mdk(1))

    def test_raw_ring_rejected(self):
        with pytest.raises(MissingInverseTable):
            decompose(zmod_ring(6))

    def test_non_meadow_input_has_no_decomposition(self):
        ring = zmod_ring(4)
        fake = FiniteStructure(
            "Z/4+id", 4, 0, 1, ring.add, ring.mul, ring.neg, (0, 1, 2, 3)
        )
        # Z/6 with 3*3 and 4*4 overwritten: 1 is the only nonzero
        # idempotent, and its ideal has 6 elements, not a prime power.
        z6 = zmod_ring(6)
        mul = [list(row) for row in z6.mul]
        mul[3][3], mul[4][4] = 0, 2
        no_split = FiniteStructure(
            "Z/6*", 6, 0, 1, z6.add, mul, z6.neg, tuple(range(6))
        )
        for s in (fake, no_split):
            with pytest.raises(DecompositionNotFound):
                decompose(s)

    def test_diagonal_commutes_with_evaluation(self, small_battery):
        import random

        from meadows import eval_term, random_term

        rng = random.Random(3)
        for s in small_battery[:10]:
            if s.zero == s.one:
                continue
            diag = decompose(s).diagonal
            for _ in range(10):
                t = random_term(rng, ("x", "y"), 3)
                a = {"x": rng.randrange(s.size), "y": rng.randrange(s.size)}
                b = {k: diag(v) for k, v in a.items()}
                assert diag(eval_term(t, s, a)) == eval_term(t, diag.target, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_succeeds_exactly_on_meadows(self, seed):
        # Relabeled small meadows, the same with one table entry overwritten,
        # and uniformly random tables: decompose must either succeed or
        # raise DecompositionNotFound, and it succeeds iff the laws hold.
        rng = random.Random(seed)
        for _ in range(100):
            s = _random_table(rng)
            try:
                decompose(s)
                found = True
            except DecompositionNotFound:
                found = False
            assert found == is_meadow(s), dump_structure(s)

    @pytest.mark.parametrize(
        "extra",
        [None, (GF4, GF4), (GF4, build_galois_field(2, 3)),
         (build_galois_field(3, 2), Z3)],
        ids=["battery", "GF4xGF4", "GF4xGF8", "GF9xZ3"],
    )
    def test_components_agree_with_homomorphism_search(
        self, nontrivial_battery, extra
    ):
        # Oracle: for each primitive idempotent e, the first homomorphism the
        # generator-propagation search finds from the ideal e*s onto the
        # field of its size, after y |-> e*y; and the diagonal is a
        # bijection onto the product.
        structures = nontrivial_battery if extra is None else [product(extra)]
        for s in structures:
            result = decompose(s)
            fields = {h.target.size: h.target for h in result.components}
            expected = []
            for e in idempotents(s):
                if e == s.zero or any(
                    f not in (s.zero, e) and s.mul[f][e] == f
                    for f in idempotents(s)
                ):
                    continue  # not a primitive idempotent
                ideal = principal_ideal(s, e)
                first = find_homomorphisms(
                    ideal.ring, fields[ideal.ring.size]
                )[0]
                expected.append(Homomorphism(
                    s, first.target,
                    tuple(first(ideal.projection(y)) for y in range(s.size)),
                ))
            expected.sort(key=lambda h: (h.target.size, h.mapping))
            assert list(result.components) == expected, s.name
            assert sorted(result.diagonal.mapping) == list(
                range(result.product.size)
            ), s.name

    def test_relabelled_gf256_needs_no_generator_search(self):
        # GF(2^8) relabelled so that GF(4) comes first, then the rest of
        # GF(16): its greedy generating set is [2, 4, 16], and a search over
        # generator images would try 256^3 maps.  Oracle: every isomorphism
        # onto GF(2^8) is a Frobenius power x |-> x^(2^k) after undoing the
        # relabelling; decompose keeps the one with the least images of the
        # generators.
        import numpy as np

        gf = build_galois_field(2, 8)
        mul = np.array(gf.mul)

        def frobenius(k):
            out = np.arange(256)
            for _ in range(k):
                out = mul[out, out]
            return out

        sub4 = [x for x in range(256) if frobenius(2)[x] == x]
        sub16 = [x for x in range(256) if frobenius(4)[x] == x]
        order = np.array(
            sub4 + [x for x in sub16 if x not in sub4]
            + [x for x in range(256) if x not in sub16]
        )
        label = np.empty(256, dtype=int)
        label[order] = np.arange(256)
        rows, cols = order[:, None], order[None, :]
        s = FiniteStructure(
            "GF(2^8) relabelled", 256, int(label[0]), int(label[1]),
            label[np.array(gf.add)[rows, cols]], label[mul[rows, cols]],
            label[np.array(gf.neg)[order]], label[np.array(gf.inv)[order]],
        )
        gens = generating_set(s)
        assert gens == [2, 4, 16]
        candidates = [tuple(frobenius(k)[order].tolist()) for k in range(8)]
        want = min(candidates, key=lambda c: [c[g] for g in gens])
        (component,) = decompose(s).components
        assert component.target == gf
        assert component.mapping == want


_SMALL_MEADOWS = (Z2, Z3, product([Z2, Z2]), GF4)


def _random_table(rng: random.Random) -> FiniteStructure:
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randrange(2, 5)

        def row():
            return [rng.randrange(n) for _ in range(n)]

        return FiniteStructure(
            "random", n, rng.randrange(n), rng.randrange(n),
            [row() for _ in range(n)], [row() for _ in range(n)], row(), row(),
        )
    base = rng.choice(_SMALL_MEADOWS)
    n = base.size
    perm = rng.sample(range(n), n)
    add, mul = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    neg, inv = [0] * n, [0] * n
    for a in range(n):
        neg[perm[a]] = perm[base.neg[a]]
        inv[perm[a]] = perm[base.inv[a]]
        for b in range(n):
            add[perm[a]][perm[b]] = perm[base.add[a][b]]
            mul[perm[a]][perm[b]] = perm[base.mul[a][b]]
    if kind == 2:
        row = rng.choice([*add, *mul, neg, inv])
        row[rng.randrange(n)] = rng.randrange(n)
    return FiniteStructure(
        "relabeled", n, perm[base.zero], perm[base.one], add, mul, neg, inv
    )


class TestPrimeCardinality:
    def test_battery_meadows_of_prime_size_are_prime_fields(self, battery):
        for s in battery:
            if not is_prime(s.size):
                continue
            zp = build_prime_field(s.size)
            homs = find_homomorphisms(s, zp)
            assert any(
                h.is_injective and h.is_surjective for h in homs
            ), s.name


class TestClassifyMinimal:
    def test_rows_up_to_ten(self):
        rows = {row.k: row for row in classify_minimal(10)}
        assert sorted(rows) == [1, 2, 3, 5, 6, 7, 10]
        assert rows[6].field is False
        assert rows[6].minimal is True
        assert rows[6].size == 6
        assert rows[7].field is True
        assert rows[1].size == 1
        assert rows[1].field is False

    def test_all_rows_minimal_with_squarefree_characteristic(self):
        for row in classify_minimal(30):
            assert row.minimal
            assert row.characteristic == row.k
            assert row.field == is_prime(row.k)
            assert row.field == is_zt_field(row.structure)

    def test_rows_satisfy_meadow_laws(self):
        for row in classify_minimal(15):
            assert all(
                v.holds for v in check_axiom_set(row.structure, MD).values()
            )
