import dataclasses
import gc
import itertools
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import meadows.terms as terms_module
import meadows.structures as structures_module
from meadows import (
    CR, DERIVED_IDENTITIES, GIL, MD, SIP,
    DecompositionNotFound, FiniteStructure, FormatError, Homomorphism,
    MissingInverseTable, UnboundVariable, Verdict,
    build_mdk, build_prime_field,
    characteristic, check_axiom_set, check_conditional, check_equation,
    decompose, dump_structure, eval_term, field_factors, find_homomorphisms,
    fold_point,
    generating_set,
    idempotents, is_meadow, is_minimal, is_nontrivial, is_zt_field,
    load_structure, local_unit, numeral, parse_equation, parse_term,
    principal_ideal, product, product_coords, product_index,
    battery_check, format_conditional, parse_conditional, parse_formula,
    random_conditional, random_equation, random_term, sample_check_conditional,
    satisfies_iel, subalgebra_generated,
    unit_of, zmod_ring,
)
from meadows.logic import Equation
from meadows.terms import Add, Inv, Mul, Neg, Var, term_size

MD6 = build_mdk(6)
Z2 = build_prime_field(2)
Z3 = build_prime_field(3)
Z5 = build_prime_field(5)
Z7 = build_prime_field(7)
TRIVIAL = build_mdk(1)


def brute_force(s, formula):
    """The least falsifying assignment by eval_term over itertools.product,
    variables in sorted order: the oracle for the bulk checker."""
    variables = sorted(formula.variables())

    def holds(atom, a):
        same = eval_term(atom.lhs, s, a) == eval_term(atom.rhs, s, a)
        return same if isinstance(atom, Equation) else not same

    for values in itertools.product(range(s.size), repeat=len(variables)):
        a = dict(zip(variables, values))
        if all(holds(p, a) for p in formula.premises) and not holds(
            formula.conclusion, a
        ):
            return Verdict(False, a)
    return Verdict(True, None)


def z4_with_identity_inv():
    ring = zmod_ring(4)
    return FiniteStructure(
        "Z/4+id", 4, 0, 1, ring.add, ring.mul, ring.neg, (0, 1, 2, 3)
    )


def without_certificate(monkeypatch):
    """Decide every formula on the grid of the structure itself: neither
    the structure's polynomials nor its field factors."""
    monkeypatch.setattr(structures_module, "_fields", lambda s: (False, ()))


def certificate_first(monkeypatch):
    """Try the certificates on every grid, however small: the fold, each
    factor and decompose are priced at no cells."""
    for cost in (
        "_FOLD_CELLS_PER_SLOT", "_FACTOR_CELLS_PER_SLOT",
        "_DECOMPOSE_CELLS", "_DECOMPOSE_CELLS_PER_ENTRY",
    ):
        monkeypatch.setattr(structures_module, cost, 0)


class TestEval:
    def test_zero_inverse_is_zero(self):
        assert eval_term(parse_term("0^-1"), MD6) == 0

    def test_two_times_its_inverse(self):
        # Oracle: direct table arithmetic in Md_6.
        expected = MD6.mul[2][MD6.inv[2]]
        assert expected == 4
        assert eval_term(parse_term("2*2^-1"), MD6) == 4

    def test_additive_identity_everywhere(self, battery):
        t = parse_term("x+0")
        for s in battery:
            for e in range(s.size):
                assert eval_term(t, s, {"x": e}) == e

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_term(Var("y"), MD6, {"x": 1})

    def test_missing_inverse_table(self):
        with pytest.raises(MissingInverseTable):
            eval_term(Inv(Var("x")), zmod_ring(6), {"x": 2})

    def test_assignment_outside_carrier(self):
        with pytest.raises(ValueError):
            eval_term(Var("x"), Z2, {"x": 5})

    def test_numeral_is_iterated_sum_of_one(self, battery):
        for s in battery:
            acc = s.zero
            for k in range(0, 2 * s.size + 1):
                assert eval_term(numeral(k), s) == acc
                acc = s.add[acc][s.one]


class TestFoldPoint:
    def test_agrees_with_eval_term(self, battery):
        # The recursive oracle against the fold of the kept program, at
        # seeded points of every battery member.
        rng = random.Random(23)
        for s in battery:
            for _ in range(40):
                t = random_term(rng, ("x", "y", "z"), 4)
                a = {v: rng.randrange(s.size) for v in ("x", "y", "z")}
                assert fold_point(t, s, a) == eval_term(t, s, a), (s.name, t)

    def test_takes_any_depth(self):
        assert fold_point(parse_term("5000"), Z7, {}) == 5000 % 7
        assert fold_point(numeral(100_000), MD6, {}) == 100_000 % 6
        assert fold_point(parse_term("+".join(["x"] * 3000)), Z7, {"x": 1}) == 4
        product = parse_term("*".join(["x^-1", "y"] * 1500))
        assert fold_point(product, Z7, {"x": 3, "y": 5}) == 1

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable, match="y"):
            fold_point(parse_term("x + y"), MD6, {"x": 1})

    def test_missing_inverse_table(self):
        with pytest.raises(MissingInverseTable):
            fold_point(Inv(Var("x")), zmod_ring(6), {"x": 2})

    def test_a_missing_inverse_table_is_reported_before_an_unbound_variable(self):
        with pytest.raises(MissingInverseTable):
            fold_point(parse_term("y + x^-1"), zmod_ring(6), {"x": 2})


def record_blocks(monkeypatch):
    """A spy on _broadcast_eval that records each block, from its
    environment alone, as the range of its head values: the sorted first
    variable that is not pinned; None for a closed formula, which has no
    head.  Returns the list it appends to."""
    blocks = []
    evaluate = structures_module._broadcast_eval

    def spy(s, ops, env):
        free = sorted(v for v, x in env.items() if isinstance(x, np.ndarray))
        if free:
            head = env[free[0]].ravel()
            blocks.append((int(head[0]), int(head[-1]) + 1))
        else:
            blocks.append(None)
        return evaluate(s, ops, env)

    monkeypatch.setattr(structures_module, "_broadcast_eval", spy)
    return blocks


class TestCheckEquation:
    def test_closed_failure_with_empty_witness(self):
        verdict = check_equation(Z2, parse_equation("(1+1)*(1+1)^-1 = 1"))
        assert not verdict.holds
        assert verdict.witness == {}

    def test_restricted_inverse_law_holds(self):
        assert check_equation(MD6, parse_equation("x*(x*x^-1) = x")).holds

    def test_unguarded_inverse_fails_at_zero(self):
        verdict = check_equation(MD6, parse_equation("x*x^-1 = 1"))
        assert not verdict.holds
        assert verdict.witness == {"x": 0}

    def test_witness_is_lexicographically_least(self):
        # x*y = x fails first at x=0? no: 0*y=0 holds; least falsifier is
        # computed by brute force as the oracle.
        eq = parse_equation("x*y = x")
        expected = None
        for x, y in itertools.product(range(MD6.size), repeat=2):
            if MD6.mul[x][y] != x:
                expected = {"x": x, "y": y}
                break
        verdict = check_equation(MD6, eq)
        assert verdict.witness == expected

    def test_bulk_and_scalar_routes_agree(self):
        # The bulk checker against the scalar eval_term, point by point.
        equations = [
            parse_equation("x*(y+z) = x*y+x*z"),
            parse_equation("(x+y)+z = x+(y+z)"),
            parse_equation("x*y = y"),
            parse_equation("x*x^-1 = 1"),
            parse_equation("inv(x*y) = inv(x)*inv(y)"),
        ]
        closed = parse_equation("(1+1)*(1+1)^-1 = 1")
        for s in (MD6, Z5, build_mdk(10)):
            for eq in (*equations, closed):
                assert check_equation(s, eq) == brute_force(s, eq), (s, eq)
            for formula in (GIL, DERIVED_IDENTITIES["implicit_inverse"], closed):
                assert check_conditional(s, formula) == brute_force(s, formula)

    def test_chunked_route_agrees(self, monkeypatch):
        # The default budget takes each grid on Md_10 as one block, and
        # budgets from 1 up force smaller blocks.
        blocks = record_blocks(monkeypatch)
        without_certificate(monkeypatch)
        md10 = build_mdk(10)
        formulas = [
            parse_equation("x*(y+z) = x*y+x*y"),  # fails somewhere
            MD["distrib"],
            # premises without x, the first variable, recur in each x block
            parse_conditional("y*y = y -> x*y = y*x"),
            parse_conditional("y*y = y & z = 1 -> x*y = x"),
            parse_conditional("x = -1 -> y = y+1"),  # fails at x = 9 only
            # x*y is an operand of several slots and a tested side
            parse_equation("x*y + (x+z)*(x*y) = (x*y)*(1+x+z)"),
            parse_equation("x*y = x*y*(x*y)^-1*(x*y) + (x+y+z)*0"),
            parse_equation("(1+1)*(1+1)^-1 = 1"),  # closed
        ]
        default = structures_module._BLOCK_BYTES
        seen = set()
        for formula in formulas:
            expected = brute_force(md10, formula)
            for budget in (default, 1, *range(100, 12001, 100)):
                monkeypatch.setattr(structures_module, "_BLOCK_BYTES", budget)
                blocks.clear()
                assert check_conditional(md10, formula) == expected, (formula, budget)
                if None in blocks:
                    assert blocks == [None]  # closed: one pass, no head
                    continue
                if blocks == [(0, 10)]:
                    seen.add("whole grid")  # one pass, nothing pinned
                    continue
                assert budget != default, formula  # every grid here fits it
                widths = {stop - start for start, stop in blocks}
                seen.add("one value" if widths == {1} else "several values")
                if any(10 % w for w in widths):
                    seen.add("width not dividing n")
                if [start for start, _ in blocks].count(0) > 1:
                    seen.add("pinned")  # x pinned, blocks over y or z
                elif expected.witness and expected.witness.get("x") == 9:
                    assert blocks[-1][0] <= 9 < blocks[-1][1] == 10
                    seen.add("witness in last block")
        assert seen == {
            "pinned", "one value", "several values", "width not dividing n",
            "witness in last block", "whole grid",
        }

    def test_shared_term_is_compiled_once(self):
        # x doubled 40 times: 41 distinct nodes, 2^41 as a tree, so the
        # terms stay out of the asserts, whose messages would print them.
        t = Var("x")
        for _ in range(40):
            t = Add(t, t)
        same = check_equation(Z5, Equation(t, t))
        assert same == Verdict(True, None)
        # 2^40 is 1 mod 5 and 2 mod 7.
        on_z5 = check_equation(Z5, Equation(t, Var("x")))
        on_z7 = check_equation(Z7, Equation(t, Var("x")))
        assert on_z5 == Verdict(True, None)
        assert on_z7 == Verdict(False, {"x": 1})

    def test_large_grid_memory_is_bounded(self, monkeypatch):
        # 4 variables on Md_42: 3.1 M cells, searched in blocks under a few
        # MB where whole-grid arrays of each subterm take over 170 MB.
        without_certificate(monkeypatch)
        eq = parse_equation(
            "((w+x)*(y+z))*((w*y)^-1 + x*z)"
            " - (w*y + w*z + x*y + x*z)*(x*z + y^-1*w^-1)"
            " = (w*x*y*z)*((w*x)^-1*(y*z)^-1) - (x*w*z*y)^-1*(z*y*x*w)"
        )
        assert term_size(eq.lhs) + term_size(eq.rhs) >= 50
        md42 = build_mdk(42)
        tracemalloc.start()
        try:
            verdict = check_equation(md42, eq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("law", ["distrib", "mul_assoc"])
    def test_prime_grid_peak_is_within_the_budget(self, monkeypatch, law):
        # Md_211 is a field, so no factor decides, and without its
        # polynomials the grid does: 9.4 M cells searched in blocks, whose
        # arrays the budget bounds.
        md211 = build_mdk(211)
        assert field_factors(md211) == ()
        without_certificate(monkeypatch)
        tracemalloc.start()
        try:
            verdict = check_equation(md211, MD[law])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert peak < 2 * structures_module._BLOCK_BYTES

    @pytest.mark.parametrize(
        "check",
        [brute_force, check_equation,
         lambda s, formula: sample_check_conditional(formula, 20)],
        ids=["scalar", "bulk", "rationals"],
    )
    def test_check_leaves_no_cyclic_garbage(self, check):
        # Reference counting alone must free each evaluator: eval_term over
        # every assignment, the bulk checker with its memo of full-grid
        # arrays, and eval_rational at every sampled point.
        gc.collect()
        gc.disable()
        try:
            check(MD6, MD["distrib"])
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", [6, 70])
    @pytest.mark.parametrize(
        "text", ["x^-1 = 0 -> x = x", "x = x & y^-1 = y -> x+0 = x"]
    )
    def test_missing_inverse_table_raises_before_evaluation(self, k, text):
        # The second conclusion holds everywhere, so a checker that only
        # evaluates premises where needed would never reach the inverse.
        with pytest.raises(MissingInverseTable):
            check_conditional(zmod_ring(k), parse_conditional(text))

    def test_threads_sharing_a_fresh_structure_agree(self):
        # Checks of one, two and three variables start together on a fresh
        # structure, so they grow its kept axes at the same time.  A lost or
        # doubled axis broadcasts two variables along one axis, and the
        # least witnesses off the diagonal below would change.
        formulas = [parse_equation(text) for text in (
            "x*x = x", "x*y = x", "x+y = y", "x*(y+z) = x*y", "x*y*z = z+x",
        )]
        expected = [brute_force(MD6, formula) for formula in formulas]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                s = dataclasses.replace(MD6)
                barrier = threading.Barrier(2 * len(formulas))
                results = [None] * (2 * len(formulas))

                def work(i):
                    barrier.wait(timeout=10)
                    results[i] = check_equation(s, formulas[i // 2])

                threads = [
                    threading.Thread(target=work, args=(i,))
                    for i in range(len(results))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [v for v in expected for _ in range(2)]
        finally:
            sys.setswitchinterval(switch)


class TestFirstBlock:
    """A grid that costs more than folding its slots first searches the
    first pin's head value 0 alone, which holds the least assignments, and
    then goes on from value 1 with its usual blocks."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        without_certificate(monkeypatch)
        return record_blocks(monkeypatch)

    @staticmethod
    def takes_first_block(s, formula):
        ops, *_, cells = structures_module._compile(s, formula.program)
        return cells > len(ops) * structures_module._FOLD_CELLS_PER_SLOT

    @pytest.mark.parametrize("k, text, head, searched", [
        (30, "x*y*z = z", 0, [(0, 1)]),  # least witness at x = 0
        (30, "x*(y+z) = x*y", 1, [(0, 1), (1, 30)]),
        (31, "((x+1)*(x+1)^-1)*(y+z) = y+z", 30, [(0, 1), (1, 31)]),  # x = -1 only
        (30, "x*(y+z) = x*y+x*z", None, [(0, 1), (1, 30)]),  # holds
        (30, "x*x = x & y*y = y -> x*(y+z) = x*y+x*z", None, [(0, 1), (1, 30)]),
        (30, "x*x = x & y*y = y -> x*y*z = z", 0, [(0, 1)]),
        (30, "x*x = x & x != 0 -> x*(y+z) = x*y", 1, [(0, 1), (1, 30)]),
    ])
    def test_agrees_with_brute_force(self, blocks, k, text, head, searched):
        s = build_mdk(k)
        formula = parse_formula(text)
        assert self.takes_first_block(s, formula)
        expected = brute_force(s, formula)
        assert check_conditional(s, formula) == expected
        assert (expected.witness or {}).get("x") == head
        # The first block covers one head value.
        assert blocks == searched

    def test_cheap_grid_is_one_block(self, blocks):
        formula = parse_conditional("y*y = y & z = z -> x*y = x")
        assert not self.takes_first_block(MD6, formula)
        assert check_conditional(MD6, formula) == brute_force(MD6, formula)
        assert blocks == [(0, 6)]

    @pytest.mark.parametrize("text", ["x*(y+z) = x*y+x*z", "y*(x+z) = (x+y)*z"])
    def test_pinned_grid(self, blocks, monkeypatch, text):
        # Under a budget of 2000 bytes x is pinned and y, the head, runs in
        # blocks of two values: for x = 0, y = 0 alone and then from 1; for
        # every later x, from 0.
        monkeypatch.setattr(structures_module, "_BLOCK_BYTES", 2000)
        md30 = build_mdk(30)
        formula = parse_equation(text)
        assert self.takes_first_block(md30, formula)
        expected = brute_force(md30, formula)
        assert check_conditional(md30, formula) == expected
        first_pin = [(0, 1), *((y, y + 2) for y in range(1, 29, 2)), (29, 30)]
        later_pin = [(y, y + 2) for y in range(0, 30, 2)]
        if expected.holds:
            assert blocks == first_pin + later_pin * 29
        else:
            # y*(x+z) = (x+y)*z holds at x = 0 and fails at x = 1, y = 0.
            assert expected.witness == {"x": 1, "y": 0, "z": 1}
            assert blocks == first_pin + later_pin[:1]

    def test_pinned_grid_with_whole_head_blocks(self, blocks, monkeypatch):
        # Under 25 000 bytes x is pinned and a block holds every y: for
        # x = 0, y = 0 alone and then the rest; for x = 1, every y again.
        monkeypatch.setattr(structures_module, "_BLOCK_BYTES", 25_000)
        md30 = build_mdk(30)
        formula = parse_equation("y*(x+z) = (x+y)*z")
        expected = brute_force(md30, formula)
        assert expected.witness == {"x": 1, "y": 0, "z": 1}
        assert check_conditional(md30, formula) == expected
        assert blocks == [(0, 1), (1, 30), (0, 30)]


class TestFieldFactors:
    """Equations and quasi-identities whose grid costs more than checking
    them on every field factor of the structure, the decompose that finds
    the factors included, are first decided on the factors."""

    @pytest.fixture
    def routes(self, monkeypatch):
        """Check a formula twice: with the certificate priced at no cells,
        so that it is tried on every grid, and on the grid alone.  Returns
        both verdicts and whether the certificate decided the first."""
        gated, searched = [], []
        lookup = structures_module.field_factors
        search = structures_module._search

        def lookup_spy(s):
            gated.append(s)
            return lookup(s)

        def search_spy(s, *args):
            searched.append(s)
            return search(s, *args)

        monkeypatch.setattr(structures_module, "field_factors", lookup_spy)
        monkeypatch.setattr(structures_module, "_search", search_spy)

        def check(s, formula):
            gated.clear()
            searched.clear()
            with monkeypatch.context() as m:
                certificate_first(m)
                certified = check_conditional(s, formula)
            by_factors = any(t is s for t in gated) and not any(
                t is s for t in searched
            )
            with monkeypatch.context() as m:
                without_certificate(m)
                grid = check_conditional(s, formula)
            return certified, grid, by_factors

        return check

    @pytest.fixture(scope="class")
    def structures(self, battery):
        extra = [build_mdk(k) for k in (30, 42, 66, 70, 105)]
        names = {s.name for s in battery}
        return (*battery, *(s for s in extra if s.name not in names))

    def test_factors_of_composites_and_fields(self, structures):
        md210 = build_mdk(210)
        assert [f.name for f in field_factors(md210)] == ["Z_2", "Z_3", "Z_5", "Z_7"]
        assert field_factors(md210) is field_factors(md210)
        by_name = {s.name: s for s in structures}
        for name, factors in [
            ("Md_1", []), ("Z_13", []), ("GF(3^2)", []), ("sub((Z_3 x Z_3))", []),
            ("Md_66", ["Z_2", "Z_3", "Z_11"]), ("(Z_2 x Z_2 x Z_2)", ["Z_2"]),
            ("(GF(2^2) x Z_3)", ["Z_3", "GF(2^2)"]),
        ]:
            assert [f.name for f in field_factors(by_name[name])] == factors, name
        assert field_factors(zmod_ring(6)) == ()  # no inverse table

    def test_replaced_structure_carries_no_factors(self):
        md30 = build_mdk(30)
        assert len(field_factors(md30)) == 3
        ring = dataclasses.replace(md30, inv=None)
        assert ring._kept.fields is None
        assert field_factors(ring) == ()
        assert dataclasses.replace(md30)._kept.fields is None

    @pytest.mark.parametrize(
        "laws", [MD, SIP, DERIVED_IDENTITIES, {"GIL": GIL}],
        ids=["MD", "SIP", "derived", "GIL"],
    )
    def test_laws_agree_with_the_grid(self, routes, structures, laws):
        decided = 0
        for s in structures:
            for name, law in laws.items():
                certified, grid, by_factors = routes(s, law)
                assert certified == grid, (s.name, name)
                if by_factors:
                    assert certified.holds and field_factors(s), (s.name, name)
                    decided += 1
        if "GIL" in laws:
            assert decided == 0  # a disequation: the grid decides
        else:
            # Every law holds on every meadow and has a variable.
            composites = sum(1 for s in structures if field_factors(s))
            assert decided == composites * len(laws)

    def test_seeded_quasi_identities_agree_with_the_grid(self, routes, structures):
        composites = [s for s in structures if field_factors(s)]
        rng = random.Random(2009)
        decided = 0
        for i in range(200):
            formula = random_conditional(rng, ("x", "y", "z"), 3, 2)
            s = composites[i % len(composites)]
            certified, grid, by_factors = routes(s, formula)
            assert certified == grid, (s.name, i)
            decided += by_factors
        assert decided > 20

    @pytest.mark.parametrize("k", [4, 12])
    def test_structure_that_does_not_decompose(self, routes, k):
        # Z/k with the identity as inverse breaks the restricted inverse law.
        ring = zmod_ring(k)
        s = FiniteStructure(
            f"Z/{k}+id", k, 0, 1, ring.add, ring.mul, ring.neg, tuple(range(k))
        )
        with pytest.raises(DecompositionNotFound):
            decompose(s)
        assert field_factors(s) == ()
        certified, grid, by_factors = routes(s, MD["Ril"])
        assert certified == grid == brute_force(s, MD["Ril"])
        assert not certified.holds and not by_factors
        assert certified.witness == {"x": 2}

    def test_failing_factor_leaves_the_witness_to_the_grid(self, routes):
        # 2x = 0 -> x = 0 fails on Z_2 at x = 1 and holds on Z_3 and Z_5;
        # on Md_30 it fails first at 15, which is 1 in Z_2.
        md30 = build_mdk(30)
        formula = parse_conditional("x + x = 0 -> x = 0")
        assert [check_conditional(f, formula) for f in field_factors(md30)] == [
            Verdict(False, {"x": 1}), Verdict(True), Verdict(True),
        ]
        certified, grid, by_factors = routes(md30, formula)
        assert certified == grid == Verdict(False, {"x": 15})
        assert not by_factors

    def test_certificate_leaves_no_cyclic_garbage(self, monkeypatch):
        # A first decomposition imports modules, whose objects are cyclic.
        decompose(build_mdk(6))
        certificate_first(monkeypatch)
        md30 = build_mdk(30)
        gc.collect()
        gc.disable()
        try:
            assert check_equation(md30, MD["distrib"]).holds
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert field_factors(md30)


def relabelled(s, perm):
    """A copy of s whose element x is called perm[x]."""
    perm = np.asarray(perm)
    back = np.argsort(perm)
    return FiniteStructure(
        f"{s.name}~", s.size, int(perm[s.zero]), int(perm[s.one]),
        perm[s._add[back][:, back]], perm[s._mul[back][:, back]],
        perm[s._neg[back]], perm[s._inv[back]],
    )


class TestPolynomials:
    """An equation whose grid costs more than folding it, the decompose
    that certifies a field included, is first decided on a zero-totalized
    field by reduced polynomials: on the structure itself when decompose
    certifies it as a field, else on its field factors.  Only "holds"
    comes from the polynomials."""

    @pytest.fixture
    def routes(self, monkeypatch):
        """Check a formula twice: with the certificates priced at no cells,
        so that they are tried, and on the grid alone.  Returns both
        verdicts and the names of the structures on which polynomials
        decided.  The fold's own budget is lifted, because these grids are
        small; test_budget_sends_large_expansions_to_the_grid keeps it."""
        decided = []
        fold = structures_module._same_polynomial

        def fold_spy(s, *args):
            same = fold(s, *args)
            if same:
                decided.append(s.name)
            return same

        monkeypatch.setattr(structures_module, "_same_polynomial", fold_spy)
        monkeypatch.setattr(structures_module, "_CELLS_PER_PRODUCT", 1)

        def check(s, formula):
            decided.clear()
            with monkeypatch.context() as m:
                certificate_first(m)
                certified = check_conditional(s, formula)
            with monkeypatch.context() as m:
                without_certificate(m)
                grid = check_conditional(s, formula)
            return certified, grid, list(decided)

        return check

    @pytest.fixture(scope="class")
    def fields(self, battery):
        z7 = build_prime_field(7)
        return (
            *(build_mdk(p) for p in (2, 3, 5, 7, 13)),
            *(s for s in battery if s.name.startswith("GF(")),
            relabelled(z7, [3, 5, 0, 6, 1, 2, 4]),
        )

    @staticmethod
    def equations():
        """200 seeded equations, and 100 that hold on every field, built
        from seeded terms."""
        rng = random.Random(17)
        out = [random_equation(rng, ("x", "y", "z"), 3) for _ in range(200)]
        for _ in range(25):
            t, u, v = (random_term(rng, ("x", "y", "z"), 2) for _ in range(3))
            out += [
                Equation(Add(t, u), Add(u, t)),
                Equation(Mul(t, Add(u, v)), Add(Mul(t, u), Mul(v, t))),
                Equation(Inv(Mul(t, u)), Mul(Inv(u), Inv(t))),
                Equation(Neg(Mul(t, u)), Mul(t, Neg(u))),
            ]
        return out

    def test_fields_are_certified(self, fields, battery):
        assert all(structures_module._fields(s) == (True, ()) for s in fields)
        composite = [s for s in battery if s.name in ("Md_30", "(Z_2 x Z_3)")]
        assert all(not structures_module._fields(s)[0] for s in composite)

    def test_laws_agree_with_the_grid(self, routes, fields):
        for s in fields:
            for laws in (MD, SIP, CR):
                for name, law in laws.items():
                    certified, grid, decided = routes(s, law)
                    assert certified == grid, (s.name, name)
                    # Every law holds on a field and folds without giving up.
                    assert decided == [s.name], (s.name, name)

    def test_seeded_equations_agree_with_the_grid(self, routes, fields):
        decided = failed = 0
        for i, eq in enumerate(self.equations()):
            for s in fields:
                certified, grid, by_polynomials = routes(s, eq)
                assert certified == grid, (s.name, i)
                if by_polynomials:
                    assert certified.holds
                    decided += 1
                failed += not grid.holds
        assert decided > 500 and failed > 1000

    def test_non_fields_are_never_decided_by_polynomials(self, routes):
        for s, laws in [
            (z4_with_identity_inv(), MD), (zmod_ring(6), CR), (build_mdk(30), MD),
        ]:
            assert not structures_module._fields(s)[0], s.name
            for name, law in laws.items():
                certified, grid, decided = routes(s, law)
                assert certified == grid, (s.name, name)
                assert s.name not in decided, (s.name, name)

    def test_budget_sends_large_expansions_to_the_grid(self, routes, monkeypatch):
        md13 = build_mdk(13)
        eq = parse_equation(
            "(x+y+z+1)*(x+y+z+1)*(x+y+z+1)*(x+y+z+1)"
            " = (1+z+y+x)*(1+z+y+x)*(1+z+y+x)*(1+z+y+x)"
        )
        assert routes(md13, eq) == (Verdict(True), Verdict(True), ["Md_13"])
        # At the default rate the fold may form a product per 1000 of the
        # grid's cells, fewer than the expansion needs.
        monkeypatch.setattr(structures_module, "_CELLS_PER_PRODUCT", 1000)
        assert routes(md13, eq) == (Verdict(True), Verdict(True), [])

    def test_inverse_of_a_sum_falls_to_the_grid_at_once(self):
        # The fold gives up at (x+y+z)^-1; the grid of Md_199 then decides,
        # in about its own time.
        md199 = build_mdk(199)
        eq = parse_equation("(x+y+z)^-1 = (z+y+x)^-1")
        structures_module._fields(md199)  # the certificate, once
        start = time.perf_counter()
        certified = check_equation(md199, eq)
        elapsed = time.perf_counter() - start
        with pytest.MonkeyPatch.context() as m:
            without_certificate(m)
            start = time.perf_counter()
            grid = check_equation(md199, eq)
            grid_elapsed = time.perf_counter() - start
        assert certified == grid == Verdict(True)
        assert elapsed < 2 * grid_elapsed + 0.5

    @pytest.mark.parametrize("text, witness", [
        ("x*(y*z)^-1 = x*y^-1*z", {"x": 1, "y": 1, "z": 2}),
        # Both sides would fold alike if ^-1 were additive on sums.
        ("(x+y)^-1 = x^-1+y^-1", {"x": 1, "y": 1}),
    ])
    def test_failing_equation_keeps_the_grid_witness(self, routes, text, witness):
        certified, grid, decided = routes(build_mdk(13), parse_equation(text))
        assert certified == grid == Verdict(False, witness)
        assert decided == []


class TestCertificateCost:
    """At the default costs, a certificate is tried exactly where it is
    expected to cost less than the grid: on Md_59 and Md_58, whose grids
    fit one block, and not for a single small check on a fresh structure,
    which would pay for the decompose, until the structure's equational
    checks have spent that decompose's price on their grids."""

    LAWS = ("add_assoc", "mul_assoc", "distrib")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The names of the structures each of _find_falsifier and _search
        was called on."""
        seen = {"checked": [], "searched": []}
        for name, key in (("_find_falsifier", "checked"), ("_search", "searched")):
            def spy(s, *args, real=getattr(structures_module, name), key=key):
                seen[key].append(s.name)
                return real(s, *args)

            monkeypatch.setattr(structures_module, name, spy)
        return seen

    def test_prime_field_laws_skip_the_grid(self, calls):
        md59 = build_mdk(59)
        for law in self.LAWS:
            assert check_equation(md59, MD[law]) == Verdict(True)
        assert calls == {"checked": ["Md_59"] * 3, "searched": []}

    def test_composite_laws_are_decided_on_the_factors(self, calls):
        md58 = build_mdk(58)
        for law in self.LAWS:
            assert check_equation(md58, MD[law]) == Verdict(True)
        assert calls["checked"] == ["Md_58", "Z_2", "Z_29"] * 3
        # Z_2's grid is cheaper than its polynomials; Z_29 is a canonical
        # field, certified by the decompose of Md_58, so it folds.
        assert calls["searched"] == ["Z_2"] * 3

    def test_one_small_check_does_not_decompose(self, calls):
        md6, md30 = build_mdk(6), build_mdk(30)
        eq = parse_equation("((x+y)*(x*y))*(x+y) = (y+x)*((y*x)*(y+x))")
        assert check_equation(md6, MD["add_assoc"]).holds
        assert check_equation(md30, eq).holds
        assert calls["searched"] == ["Md_6", "Md_30"]
        assert md6._kept.fields is None and md30._kept.fields is None

    def test_spent_grid_cells_pay_for_the_decompose(self, calls):
        # add_assoc on Md_47 fills 212 205 cells, and its decompose is
        # priced at 216 270: the first check alone would not pay for it,
        # but the first two have, so the third is decided on the field.
        md47 = build_mdk(47)
        law = MD["add_assoc"]
        cells = structures_module._compile(md47, law.program)[-1]
        price = (
            structures_module._DECOMPOSE_CELLS
            + structures_module._DECOMPOSE_CELLS_PER_ENTRY * 47**2
        )
        assert (cells, price) == (212_205, 216_270)
        for searched in (["Md_47"], ["Md_47"] * 2, ["Md_47"] * 2, ["Md_47"] * 2):
            assert check_equation(md47, law) == Verdict(True)
            assert calls["searched"] == searched
        assert md47._kept.fields == (True, ())
        assert md47._kept.spent == 2 * cells

    def test_spent_cells_count_only_equational_checks(self, calls):
        # GIL has a disequation, so no certificate could spare its grid.
        md47 = build_mdk(47)
        for _ in range(3):
            assert check_conditional(md47, GIL) == Verdict(True)
        assert md47._kept.spent == 0 and md47._kept.fields is None


class TestAxiomSets:
    def test_md10_satisfies_all_meadow_laws(self):
        report = check_axiom_set(build_mdk(10), MD)
        assert all(v.holds for v in report.values())
        assert set(report) == set(MD)

    def test_z4_with_identity_inverse_fails_ril_at_two(self):
        report = check_axiom_set(z4_with_identity_inv(), MD)
        assert not report["Ril"].holds
        assert report["Ril"].witness == {"x": 2}
        # Oracle: 2*(2*2) = 8 = 0 mod 4, not 2.
        s = z4_with_identity_inv()
        assert s.mul[2][s.mul[2][2]] != 2

    def test_trivial_structure_satisfies_everything(self):
        assert all(v.holds for v in check_axiom_set(TRIVIAL, MD).values())
        assert is_meadow(TRIVIAL)
        assert not is_nontrivial(TRIVIAL)

    def test_meadows_satisfy_sip(self, battery):
        for s in battery:
            assert all(
                v.holds for v in check_axiom_set(s, SIP).values()
            ), s.name

    def test_is_zt_field_splits_battery(self, battery):
        for s in battery:
            expected = is_meadow(s) and is_nontrivial(s) and all(
                any(s.mul[x][y] == s.one for y in range(s.size))
                for x in range(s.size)
                if x != s.zero
            )
            assert is_zt_field(s) == expected, s.name

    def test_iel_matches_gil_on_meadows(self, battery):
        for s in battery:
            assert satisfies_iel(s) == check_conditional(s, GIL).holds, s.name


class TestLocalUnits:
    def test_unit_vanishes_only_at_zero(self, battery):
        for s in battery:
            for x in range(s.size):
                vanishes = s.mul[x][s.inv[x]] == s.zero
                assert vanishes == (x == s.zero), (s.name, x)

    def test_unit_of_inverse(self, battery):
        x = Var("x")
        eq = Equation(local_unit(x), local_unit(Inv(x)))
        for s in battery:
            assert check_equation(s, eq).holds, s.name

    def test_unit_of_product(self, battery):
        x, y = Var("x"), Var("y")
        eq = Equation(
            local_unit(Mul(x, y)), Mul(local_unit(x), local_unit(y))
        )
        for s in battery:
            assert check_equation(s, eq).holds, s.name


class TestCharacteristic:
    def test_md6(self):
        assert characteristic(MD6) == 6

    def test_prime_field(self):
        assert characteristic(Z7) == 7

    def test_product_is_lcm(self):
        s = product([Z2, Z3])
        # Oracle: iterate 1+1+... directly in the product table.
        acc = s.zero
        count = 0
        while True:
            acc = s.add[acc][s.one]
            count += 1
            if acc == s.zero:
                break
        assert count == 6
        assert characteristic(s) == 6

    def test_battery_characteristics_are_squarefree(self, battery):
        from meadows import is_squarefree

        for s in battery:
            assert is_squarefree(characteristic(s)), s.name


class TestProduct:
    def test_index_encoding_first_factor_fastest(self):
        sizes = [2, 3]
        assert [product_coords(i, sizes) for i in range(6)] == [
            (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2),
        ]
        for i in range(6):
            assert product_index(product_coords(i, sizes), sizes) == i

    def test_size_and_characteristic(self):
        s = product([Z2, Z3])
        assert s.size == 6
        assert characteristic(s) == 6

    def test_unary_product_is_table_identical(self):
        s = product([Z2])
        assert (s.size, s.zero, s.one) == (Z2.size, Z2.zero, Z2.one)
        assert s.add == Z2.add and s.mul == Z2.mul
        assert s.neg == Z2.neg and s.inv == Z2.inv

    def test_square_of_z2_is_a_meadow_but_not_a_field(self):
        s = product([Z2, Z2])
        assert is_meadow(s)
        verdict = check_conditional(s, GIL)
        assert not verdict.holds
        # (1,0) is index 1; its local unit is itself, not (1,1).
        assert verdict.witness == {"x": 1}
        assert s.mul[1][s.inv[1]] == 1 != s.one

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            product([])

    @pytest.mark.parametrize("arity", [2, 3])
    def test_tables_match_per_entry_oracle(self, battery, arity):
        # Oracle: every entry through product_index of the factor entries.
        rng = random.Random(arity)
        pool = [s for s in battery if s.size <= (13 if arity == 2 else 6)]
        for _ in range(6):
            factors = [rng.choice(pool) for _ in range(arity)]
            sizes = [f.size for f in factors]
            s = product(factors)
            coords = [product_coords(i, sizes) for i in range(s.size)]

            def entry(table, a, b):
                return product_index(
                    [t[x][y] for t, x, y in zip(table, a, b)], sizes
                )

            add = tuple(tuple(entry([f.add for f in factors], a, b)
                              for b in coords) for a in coords)
            mul = tuple(tuple(entry([f.mul for f in factors], a, b)
                              for b in coords) for a in coords)
            neg = tuple(product_index([f.neg[x] for f, x in zip(factors, a)],
                                      sizes) for a in coords)
            inv = tuple(product_index([f.inv[x] for f, x in zip(factors, a)],
                                      sizes) for a in coords)
            assert (s.add, s.mul, s.neg, s.inv) == (add, mul, neg, inv), [
                f.name for f in factors
            ]
            assert type(s.add[0][0]) is int

    def test_without_inverse_when_a_factor_has_none(self):
        s = product([Z2, zmod_ring(3)])
        assert s.inv is None and s.size == 6

    def test_products_of_meadows_are_meadows(self, small_battery):
        rng = random.Random(7)
        pool = [s for s in small_battery if s.size <= 7]
        for _ in range(5):
            factors = rng.sample(pool, 2)
            assert is_meadow(product(factors))


class TestSubalgebra:
    def test_md6_is_generated_by_constants(self):
        sub, inclusion = subalgebra_generated(MD6)
        assert sub.size == MD6.size
        assert inclusion.mapping == tuple(range(6))

    def test_diagonal_of_z2_squared(self):
        s = product([Z2, Z2])
        sub, inclusion = subalgebra_generated(s)
        assert sub.size == 2
        assert inclusion.mapping == (0, 3)  # (0,0) and (1,1)

    def test_full_seed_set_returns_everything(self):
        sub, inclusion = subalgebra_generated(MD6, range(6))
        assert sub.size == 6
        assert sub.add == MD6.add and sub.mul == MD6.mul

    def test_subalgebras_of_meadows_are_meadows(self, small_battery):
        for s in small_battery[:8]:
            sub, _ = subalgebra_generated(s, {s.size - 1})
            assert is_meadow(sub), s.name

    def test_seed_outside_carrier(self):
        with pytest.raises(ValueError):
            subalgebra_generated(Z2, {5})


class TestMinimal:
    def test_md30_minimal(self):
        assert is_minimal(build_mdk(30))

    def test_z2_square_not_minimal(self):
        assert not is_minimal(product([Z2, Z2]))

    def test_trivial_minimal(self):
        assert is_minimal(TRIVIAL)

    def test_generating_set_empty_iff_minimal(self, small_battery):
        for s in small_battery:
            assert (generating_set(s) == []) == is_minimal(s), s.name


class TestHomomorphisms:
    def test_md6_onto_z2_unique_epimorphism(self):
        homs = find_homomorphisms(MD6, Z2)
        assert len(homs) == 1
        h = homs[0]
        assert h.mapping == (0, 1, 0, 1, 0, 1)
        assert h.is_surjective and not h.is_injective

    def test_no_map_from_z3_to_z2(self):
        assert find_homomorphisms(Z3, Z2) == []

    @pytest.mark.parametrize("s", [Z2, Z5, MD6, TRIVIAL])
    def test_identity_found(self, s):
        homs = find_homomorphisms(s, s)
        assert any(h.mapping == tuple(range(s.size)) for h in homs)

    def test_invalid_map_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Homomorphism(Z3, Z3, (0, 2, 1))  # swaps 1 and 2, breaks 1 -> 1

    def test_requires_inverse_tables(self):
        with pytest.raises(MissingInverseTable):
            find_homomorphisms(zmod_ring(6), Z2)

    @pytest.mark.parametrize("seed", range(4))
    def test_error_matches_scalar_scan(self, small_battery, seed):
        # Oracle: the element-by-element scan the table check replaced; the
        # first error it meets is the one construction must raise.
        def scan(src, tgt, m):
            if len(m) != src.size or any(not 0 <= v < tgt.size for v in m):
                return "mapping is not a function into the target carrier"
            if m[src.zero] != tgt.zero or m[src.one] != tgt.one:
                return "constants not preserved"
            for a in range(src.size):
                if m[src.neg[a]] != tgt.neg[m[a]]:
                    return f"negation not preserved at {a}"
                for b in range(src.size):
                    if m[src.add[a][b]] != tgt.add[m[a]][m[b]]:
                        return f"addition not preserved at ({a},{b})"
                    if m[src.mul[a][b]] != tgt.mul[m[a]][m[b]]:
                        return f"multiplication not preserved at ({a},{b})"
            if src.inv is not None and tgt.inv is not None:
                for a in range(src.size):
                    if m[src.inv[a]] != tgt.inv[m[a]]:
                        return f"inverse not preserved at {a}"
            return None

        rng = random.Random(seed)
        pool = [*small_battery, zmod_ring(4), z4_with_identity_inv()]
        seen = set()
        for _ in range(300):
            src = rng.choice(pool)
            homs = find_homomorphisms(src, src, require_inv=False)
            tgt, m = src, list(rng.choice(homs).mapping)
            if rng.random() < 0.3:
                tgt = rng.choice(pool)
                m = [rng.randrange(tgt.size) for _ in range(src.size)]
            for _ in range(rng.randrange(3)):
                m[rng.randrange(src.size)] = rng.randrange(tgt.size + 1)
            try:
                Homomorphism(src, tgt, tuple(m))
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == scan(src, tgt, m), (src.name, tgt.name, m)
            seen.add(got and got.split(" at ")[0])
        assert len(seen) >= 5, seen

    def test_mapping_is_stored_as_python_ints(self):
        import numpy as np

        h = Homomorphism(MD6, Z2, np.array([0, 1, 0, 1, 0, 1], dtype=np.int64))
        assert h.mapping == (0, 1, 0, 1, 0, 1)
        assert all(type(v) is int for v in h.mapping)

    @pytest.mark.parametrize(
        "mapping", [(0, 1), (0, 1, 0, 1, 0, 2), (0, 1, 0, 1, 0, -1),
                    (0, 1, 0, 1, 0, 2**40), ((0,), 1, 0, 1, 0, 1)],
    )
    def test_mapping_outside_target_rejected(self, mapping):
        with pytest.raises(ValueError, match="^mapping is not a function"):
            Homomorphism(MD6, Z2, mapping)

    def test_ring_maps_into_fields_preserve_inverse(self):
        # Propagating only the ring operations still yields full
        # inverse-preserving maps when the target is a field.
        homs = find_homomorphisms(build_mdk(30), Z5, require_inv=False)
        assert homs and all(
            h.mapping[h.source.inv[a]] == h.target.inv[h.mapping[a]]
            for h in homs
            for a in range(30)
        )

    def test_evaluation_commutes_exhaustively_on_small_terms(self):
        # Every term of depth <= 2 over one variable, every assignment.
        from meadows.terms import ZERO, ONE

        def layer(below):
            out = list(below)
            out += [Neg(t) for t in below] + [Inv(t) for t in below]
            out += [Add(a, b) for a in below for b in below]
            out += [Mul(a, b) for a in below for b in below]
            return out

        depth2 = layer(layer([ZERO, ONE, Var("x")]))
        h = find_homomorphisms(MD6, Z3)[0]
        for t in depth2:
            for e in range(MD6.size):
                assert h(eval_term(t, MD6, {"x": e})) == eval_term(
                    t, Z3, {"x": h(e)}
                )

    def test_evaluation_commutes_with_homomorphisms(self, small_battery):
        rng = random.Random(11)
        from meadows import random_term

        pairs = [
            (MD6, Z2),
            (MD6, Z3),
            (product([Z2, Z3]), Z3),
            (build_mdk(30), Z5),
        ]
        for src, tgt in pairs:
            for h in find_homomorphisms(src, tgt):
                for _ in range(25):
                    t = random_term(rng, ("x", "y"), 4)
                    a = {
                        "x": rng.randrange(src.size),
                        "y": rng.randrange(src.size),
                    }
                    image_a = {k: h(v) for k, v in a.items()}
                    assert h(eval_term(t, src, a)) == eval_term(t, tgt, image_a)


class TestIdempotentsAndIdeals:
    def test_field_has_trivial_idempotents(self):
        assert idempotents(Z5) == (0, 1)

    def test_md6_idempotents(self):
        # Oracle: brute force e*e = e mod 6.
        expected = tuple(e for e in range(6) if (e * e) % 6 == e)
        assert expected == (0, 1, 3, 4)
        assert idempotents(MD6) == expected

    def test_unit_of_three(self):
        assert unit_of(MD6, 3) == 3

    def test_principal_ideal_of_two(self):
        ideal = principal_ideal(MD6, 2)
        assert ideal.elements == (0, 2, 4)
        assert ideal.unit == 4
        assert ideal.ring.size == 3
        assert is_meadow(ideal.ring)
        assert ideal.projection.is_surjective
        # The ideal's unit really is a unit inside it.
        one = ideal.ring.one
        for a in range(ideal.ring.size):
            assert ideal.ring.mul[one][a] == a

    def test_principal_ideal_of_one_is_everything(self):
        ideal = principal_ideal(MD6, 1)
        assert ideal.elements == (0, 1, 2, 3, 4, 5)
        assert ideal.unit == 1

    def test_principal_ideal_of_zero(self):
        ideal = principal_ideal(MD6, 0)
        assert ideal.elements == (0,)
        assert ideal.ring.size == 1

    def test_idempotent_projection_fixes_members(self, small_battery):
        # x belongs to e*R exactly when e*x = x, for idempotent e.
        for s in small_battery[:6]:
            for e in idempotents(s):
                members = {s.mul[e][r] for r in range(s.size)}
                for x in range(s.size):
                    assert (x in members) == (s.mul[e][x] == x)


class TestErrorPaths:
    def test_characteristic_detects_corrupt_add_table(self):
        from meadows import NoFiniteCharacteristic

        absorbing = FiniteStructure(
            "absorbing", 2, 0, 1,
            ((0, 1), (1, 1)),  # 1+1 = 1: sums of one never return to zero
            ((0, 0), (0, 1)),
            (0, 1),
        )
        with pytest.raises(NoFiniteCharacteristic):
            characteristic(absorbing)

    def test_search_bound_exceeded(self):
        from meadows import SearchBoundExceeded

        big = product([build_prime_field(5), build_prime_field(5)])
        with pytest.raises(SearchBoundExceeded):
            find_homomorphisms(big, big, search_bound=0)

    def test_unit_of_requires_inverse(self):
        with pytest.raises(MissingInverseTable):
            unit_of(zmod_ring(6), 2)

    def test_principal_ideal_guards_ril(self):
        from meadows import NotAMeadow

        with pytest.raises(NotAMeadow):
            principal_ideal(z4_with_identity_inv(), 2)

    def test_principal_ideal_requires_inverse(self):
        with pytest.raises(MissingInverseTable):
            principal_ideal(zmod_ring(6), 2)

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            FiniteStructure("bad", 2, 0, 1, ((0,),), ((0, 0), (0, 1)), (0, 1))
        with pytest.raises(ValueError):
            FiniteStructure("bad", 2, 0, 3, Z2.add, Z2.mul, Z2.neg)


class TestTableValidation:
    # Every check of the tables, with the messages it has always raised.

    @pytest.mark.parametrize("add, message", [
        (((0, 1), (1,)), "add table is not 2x2"),
        (((0, 1), (1, 0), (0, 1)), "add table is not 2x2"),
        ((0, 1, 1, 0), "add table is not 2x2"),
        (((0, 1), (1, 2)), "add table entry outside carrier"),
        (((0, 1), (1, -1)), "add table entry outside carrier"),
        (((0, 1), (1, 2**40)), "add table entry outside carrier"),
    ])
    def test_add_table(self, add, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteStructure("bad", 2, 0, 1, add, Z2.mul, Z2.neg, Z2.inv)

    @pytest.mark.parametrize("mul, message", [
        (((0, 0), (0, 1, 1)), "mul table is not 2x2"),
        (((0, 0),), "mul table is not 2x2"),
        (((0, 0), (0, 3)), "mul table entry outside carrier"),
    ])
    def test_mul_table(self, mul, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteStructure("bad", 2, 0, 1, Z2.add, mul, Z2.neg, Z2.inv)

    @pytest.mark.parametrize("neg, inv, message", [
        ((0,), None, "neg row is not a map on the carrier"),
        ((0, 1, 0), None, "neg row is not a map on the carrier"),
        ((0, 2), None, "neg row is not a map on the carrier"),
        (((0, 1), (1, 0)), None, "neg row is not a map on the carrier"),
        ((0, 1), (0, -1), "inv row is not a map on the carrier"),
        ((0, 1), (0,), "inv row is not a map on the carrier"),
    ])
    def test_rows(self, neg, inv, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteStructure("bad", 2, 0, 1, Z2.add, Z2.mul, neg, inv)

    def test_carrier_and_constants(self):
        with pytest.raises(ValueError, match="^carrier must be non-empty$"):
            FiniteStructure("bad", 0, 0, 0, (), (), ())
        with pytest.raises(ValueError, match="^constants outside carrier$"):
            FiniteStructure("bad", 2, 0, 2, Z2.add, Z2.mul, Z2.neg)

    def test_wide_numpy_entries_are_checked_before_the_cast(self):
        import numpy as np

        add = np.array(Z2.add, dtype=np.int64)
        add[1, 1] = 2**32  # would wrap to 0 in int32
        with pytest.raises(ValueError, match="^add table entry outside"):
            FiniteStructure("bad", 2, 0, 1, add, Z2.mul, Z2.neg)

    def test_tables_are_stored_as_python_ints(self):
        import numpy as np

        s = FiniteStructure(
            "Z_2", 2, 0, 1, np.array(Z2.add), [list(r) for r in Z2.mul],
            np.array(Z2.neg, dtype=np.int8), (0, True),
        )
        assert s == Z2
        for row in (*s.add, *s.mul, s.neg, s.inv):
            assert all(type(v) is int for v in row)

    def test_table_views_are_read_only_copies(self):
        import numpy as np

        add = np.array(Z2.add, dtype=np.int32)
        s = FiniteStructure("Z_2", 2, 0, 1, add, Z2.mul, Z2.neg, Z2.inv)
        add[0, 0] = 1
        view = s._add
        assert view.tolist() == [[0, 1], [1, 0]]
        with pytest.raises(ValueError):
            view[0, 0] = 1


class TestFileFormat:
    def test_round_trip(self):
        text = dump_structure(MD6)
        again = load_structure(text)
        assert again == MD6

    def test_round_trip_without_inverse(self):
        ring = zmod_ring(4)
        assert load_structure(dump_structure(ring)) == ring

    def test_comments_and_blank_lines_ignored(self):
        text = dump_structure(Z2)
        noisy = "# header\n\n" + text.replace("add:", "add:  # rows follow")
        assert load_structure(noisy) == Z2

    def test_bad_row_length_reports_line(self):
        text = dump_structure(Z2).replace("0 1\n1 0\nmul", "0 1 1\n1 0\nmul", 1)
        with pytest.raises(FormatError) as err:
            load_structure(text)
        assert err.value.line == 6

    def test_missing_section(self):
        with pytest.raises(FormatError):
            load_structure("name: x\nsize: 1\nzero: 0\none: 0\n")

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            load_structure(dump_structure(Z2) + "extra: 1\n")

    def test_entry_outside_carrier(self):
        text = dump_structure(Z2).replace("0 1\n1 0\nmul", "0 7\n1 0\nmul", 1)
        with pytest.raises(FormatError):
            load_structure(text)

    def test_zero_size_rejected(self):
        with pytest.raises(FormatError):
            load_structure("name: e\nsize: 0\nzero: 0\none: 0\nadd:\nmul:\nneg:\n")


class TestCompiledOnce:
    """A formula's program is built on its first check and only folded on
    every later structure, field factor or battery member."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = terms_module.compile_terms

        def spy(roots):
            calls.append(list(roots))
            return build(calls[-1])

        monkeypatch.setattr(terms_module, "compile_terms", spy)

        def count(formula):
            sides = [t for atom in (formula.conclusion, *formula.premises)
                     for t in (atom.lhs, atom.rhs)]
            return sum(
                len(c) == len(sides) and all(a is b for a, b in zip(c, sides))
                for c in calls
            )

        return count

    @staticmethod
    def fresh(formula):
        # New terms throughout, so no program is kept from earlier checks.
        return parse_formula(format_conditional(formula))

    def test_axiom_set_over_ten_structures(self, builds, battery):
        laws = {name: self.fresh(eq) for name, eq in MD.items()}
        for s in battery[:10]:
            check_axiom_set(s, laws)
        assert [builds(eq) for eq in laws.values()] == [1] * len(MD)

    def test_field_factor_recursion(self, builds):
        md210 = build_mdk(210)
        assert len(field_factors(md210)) == 4
        law = self.fresh(MD["distrib"])
        assert check_equation(md210, law).holds
        assert builds(law) == 1

    def test_battery_check_over_four_models(self, builds, battery):
        formula = self.fresh(DERIVED_IDENTITIES["implicit_inverse"])
        report = battery_check(formula, battery[:4])
        assert len(report.rows) == 4 and report.meadows_valid
        assert builds(formula) == 1
