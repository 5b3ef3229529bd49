import random

from meadows import (
    GIL, SEP,
    battery_check, build_galois_field, build_mdk, build_prime_field,
    characteristic, check_conditional, check_equation, derived_identity_suite,
    encode_conditional, is_meadow, is_nontrivial, is_squarefree, is_zt_field,
    ln_equation, parse_equation, random_conditional,
    random_term, sample_check_conditional, term_size,
)
from meadows.logic import ConditionalEquation, Equation
from meadows.terms import free_vars


class TestStandardBattery:
    def test_composition(self, battery):
        assert len(battery) == 27
        assert len({s.name for s in battery}) == 27

    def test_every_member_is_a_meadow(self, battery):
        for s in battery:
            assert is_meadow(s), s.name

    def test_characteristics_squarefree(self, battery):
        for s in battery:
            assert is_squarefree(characteristic(s)), s.name

    def test_contains_fields_and_non_fields(self, battery):
        kinds = {is_zt_field(s) for s in battery}
        assert kinds == {True, False}

    def test_guarded_inverse_law_split(self, battery):
        for s in battery:
            gil = check_conditional(s, GIL).holds
            if is_zt_field(s):
                assert gil, s.name
            elif is_nontrivial(s):
                assert not gil, s.name
            else:
                # The trivial meadow satisfies the guard vacuously but
                # fails separation.
                assert gil
                assert not check_conditional(s, SEP).holds


class TestDerivedIdentities:
    def test_md30_all_pass(self):
        report = derived_identity_suite(build_mdk(30))
        assert all(v.holds for v in report.values())

    def test_gf4_fourth_power_identity(self):
        gf4 = build_galois_field(2, 2)
        report = derived_identity_suite(gf4)
        assert report["fourth_power_fixed"].holds
        # x^4 = x holds at every element of GF(4), so the premise is never
        # vacuous; check the conclusion pointwise as well.
        for x in range(4):
            x2 = gf4.mul[x][x]
            assert gf4.mul[x2][x2] == x
            assert x == gf4.mul[gf4.inv[x]][gf4.inv[x]]

    def test_z2_square_identity_at_both_elements(self):
        z2 = build_prime_field(2)
        assert derived_identity_suite(z2)["square_fixed"].holds
        for x in range(2):
            if z2.mul[x][x] == x:
                assert x == z2.inv[x]

    def test_whole_battery_passes(self, battery):
        for s in battery:
            report = derived_identity_suite(s)
            bad = [name for name, v in report.items() if not v.holds]
            assert not bad, (s.name, bad)


class TestBatteryCheck:
    def test_axiom_is_valid_everywhere(self, battery):
        report = battery_check(parse_equation("x*(x*x^-1) = x"), battery)
        assert report.meadows_valid and report.fields_valid
        assert report.agreement
        assert len(report.rows) == len(battery)

    def test_double_inverse_of_two_splits_by_characteristic(self, battery):
        report = battery_check(parse_equation("(1+1)*(1+1)^-1 = 1"), battery)
        verdicts = dict(report.rows)
        assert not verdicts["Z_2"].holds
        assert not verdicts["Md_6"].holds
        assert verdicts["Z_3"].holds
        assert verdicts["Z_5"].holds
        assert not report.meadows_valid
        assert not report.fields_valid
        assert report.agreement

    def test_first_squares_scheme_fails_in_z2(self, battery):
        report = battery_check(ln_equation(1), battery)
        assert not dict(report.rows)["Z_2"].holds

    def test_rational_row_for_equations(self):
        assert sample_check_conditional(parse_equation("inv(inv(x)) = x"), 50)

    def test_rational_row_for_guarded_conditional(self):
        assert sample_check_conditional(GIL, 100)

    def test_conditional_rows(self, small_battery):
        from meadows import parse_conditional

        report = battery_check(
            parse_conditional("x*y = 1 -> x^-1 = y"), small_battery
        )
        assert report.meadows_valid

    def test_equational_premises_sample_through_the_encoding(self):
        from meadows import parse_conditional

        assert sample_check_conditional(
            parse_conditional("x*y = 1 -> x^-1 = y"), 100
        )


class TestGenerators:
    def test_deterministic_given_seed(self):
        a = [random_conditional(random.Random(5)) for _ in range(10)]
        b = [random_conditional(random.Random(5)) for _ in range(10)]
        assert a == b

    def test_shapes(self):
        rng = random.Random(0)
        for _ in range(200):
            ce = random_conditional(rng, ("x", "y", "z"), 4, 3)
            assert isinstance(ce, ConditionalEquation)
            assert len(ce.premises) <= 3
            assert all(isinstance(p, Equation) for p in ce.premises)
            for atom in (*ce.premises, ce.conclusion):
                assert free_vars(atom.lhs) | free_vars(atom.rhs) <= {"x", "y", "z"}
                # Depth 4 over binary nodes caps the size well under 2^5.
                assert term_size(atom.lhs) <= 31
                assert term_size(atom.rhs) <= 31

    def test_term_generator_hits_all_constructors(self):
        rng = random.Random(1)
        kinds = {type(random_term(rng)).__name__ for _ in range(300)}
        assert {"Zero", "One", "Var", "Neg", "Inv", "Add", "Mul"} <= kinds


class TestEncodingSoundness:
    def test_theorem_finite_form_on_random_conditionals(self, small_battery):
        rng = random.Random(0)
        fields = [s for s in small_battery if is_zt_field(s)]
        for _ in range(40):
            ce = random_conditional(rng)
            enc = encode_conditional(ce)
            cond = {s.name: check_conditional(s, ce).holds for s in small_battery}
            encv = {s.name: check_equation(s, enc).holds for s in small_battery}
            # Per structure: a valid encoding forces the conditional.
            for s in small_battery:
                if encv[s.name]:
                    assert cond[s.name], (s.name, ce)
            # On fields the two checks coincide exactly.
            for s in fields:
                assert cond[s.name] == encv[s.name], (s.name, ce)
            # Across the whole battery the verdicts agree.
            assert all(cond.values()) == all(encv.values()), ce

    def test_known_per_structure_gap_off_fields(self):
        # The conditional 3=0 -> 1=0 holds vacuously in Md_6, yet its
        # encoding (1 - 3*3^-1)*1 = 4 is nonzero there; only the class-level
        # equivalence survives off fields.
        from meadows import parse_conditional

        md6 = build_mdk(6)
        ce = parse_conditional("3 = 0 -> 1 = 0")
        assert check_conditional(md6, ce).holds
        assert not check_equation(md6, encode_conditional(ce)).holds
