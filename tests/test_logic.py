import pytest

from meadows import (
    GIL, SEP, ZERO, ONE,
    ConditionalEquation, Disequation, Equation, ParseError,
    UnsupportedPremise, Var,
    build_mdk, build_prime_field, c_guard, check_conditional, check_equation,
    encode_conditional, eval_term, format_conditional,
    ln_equation, normalize_to_zero, numeral, parse_conditional,
    parse_equation, parse_formula, sample_check_conditional, sub, u_merge,
    z_term,
)
from meadows.terms import Add, Inv, Mul, Neg

X, Y = Var("x"), Var("y")
MD6 = build_mdk(6)
Z3 = build_prime_field(3)
Z5 = build_prime_field(5)


class TestParsing:
    def test_equation(self):
        assert parse_equation("x = y") == Equation(X, Y)

    def test_conditional(self):
        ce = parse_conditional("x*y=1 -> inv(x)=y")
        assert ce == ConditionalEquation(
            (Equation(Mul(X, Y), ONE),), Equation(Inv(X), Y)
        )

    def test_guarded_inverse_law_text_form(self):
        assert parse_conditional("x != 0 -> x*x^-1 = 1") == GIL

    def test_separation_text_form(self):
        assert parse_formula("0 != 1") == SEP

    def test_formula_dispatch(self):
        assert isinstance(parse_formula("x = y"), Equation)
        assert isinstance(parse_formula("x=0 -> y=0"), ConditionalEquation)

    def test_premises_without_conclusion_rejected(self):
        with pytest.raises(ParseError):
            parse_conditional("x=0 & y=0")

    def test_disequation_not_an_equation(self):
        with pytest.raises(ParseError):
            parse_equation("x != y")

    def test_bare_equation_texts_parse_as_equations(self):
        # parse_formula reads every formula with the conditional grammar;
        # on a bare equation it must agree with parse_equation, errors too.
        def outcome(parse, text):
            try:
                return parse(text)
            except ParseError as exc:
                return str(exc), exc.position

        texts = [
            "x = y", " x*(x*x^-1)=x ", "inv(inv(x)) = x", "50 = 2",
            "-x = (0 - x)", "", "x", "x =", "= y", "x = y z", "x = y)",
            "(x = y", "x == y", "x = y^-2", "x = y = z", "x = 1/", "X = y",
        ]
        for text in texts:
            assert outcome(parse_formula, text) == outcome(parse_equation, text)

    def test_format_round_trips(self):
        for text in (
            "x*y = 1 -> x^-1 = y",
            "x != 0 -> x*x^-1 = 1",
            "x-y = 0 & y = 1 -> x*x = 1",
        ):
            ce = parse_conditional(text)
            assert parse_conditional(format_conditional(ce)) == ce


class TestNormalize:
    def test_two_sided(self):
        eq = normalize_to_zero(parse_equation("x = y"))
        assert eq == Equation(Add(X, Neg(Y)), ZERO)

    def test_rewrite_is_uniform_even_for_zero_sides(self):
        eq = normalize_to_zero(parse_equation("x = 0"))
        assert eq == Equation(Add(X, Neg(ZERO)), ZERO)

    def test_semantic_equivalence_exhaustively(self):
        for text in ("x*x = x", "x+y = y+x", "x*y = 1", "x = x^-1"):
            eq = parse_equation(text)
            assert check_equation(MD6, eq) == check_equation(
                MD6, normalize_to_zero(eq)
            )


class TestGuardAndMerge:
    def test_guard_shape(self):
        assert c_guard(X, Y) == Mul(sub(ONE, Mul(X, Inv(X))), Y)

    def test_guard_with_zero_passes_value_through(self, small_battery):
        t = c_guard(numeral(0), X)
        for s in small_battery:
            for e in range(s.size):
                assert eval_term(t, s, {"x": e}) == e, s.name

    def test_guard_kills_invertible_arguments_in_z5(self):
        t = c_guard(X, Y)
        for a in range(1, 5):
            for b in range(5):
                assert eval_term(t, Z5, {"x": a, "y": b}) == 0

    def test_guard_value_in_md6(self):
        assert eval_term(c_guard(X, Y), MD6, {"x": 2, "y": 3}) == 3

    def test_merge_is_zero_exactly_at_joint_zero(self, small_battery):
        t = u_merge(X, Y)
        for s in small_battery:
            for a in range(s.size):
                for b in range(s.size):
                    vanished = eval_term(t, s, {"x": a, "y": b}) == s.zero
                    both_zero = a == s.zero and b == s.zero
                    assert vanished == both_zero, (s.name, a, b)

    def test_merge_at_origin(self):
        assert eval_term(u_merge(numeral(0), numeral(0)), MD6) == 0

    def test_merge_of_one_and_zero_in_z3(self):
        assert eval_term(u_merge(ONE, ZERO), Z3) == 2


class TestEncode:
    def test_disequation_premise_rejected(self):
        with pytest.raises(UnsupportedPremise):
            encode_conditional(GIL)

    def test_disequation_conclusion_rejected(self):
        with pytest.raises(UnsupportedPremise):
            encode_conditional(SEP)

    def test_no_premises_returns_normalized_conclusion(self):
        ce = parse_conditional("x = 0 -> x = 0").conclusion
        encoded = encode_conditional(ConditionalEquation((), Equation(X, ZERO)))
        assert encoded == Equation(Add(X, Neg(ZERO)), ZERO)
        assert ce == Equation(X, ZERO)

    def test_single_premise_shape(self):
        ce = parse_conditional("x*y = 1 -> x^-1 = y")
        t1 = normalize_to_zero(ce.premises[0]).lhs
        t = normalize_to_zero(ce.conclusion).lhs
        assert encode_conditional(ce) == Equation(c_guard(t1, t), ZERO)

    def test_three_premises_fold_left(self):
        ce = parse_conditional("t1=0 & t2=0 & t3=0 -> t=0")
        sides = [normalize_to_zero(a).lhs for a in (*ce.premises, ce.conclusion)]
        expected = Equation(
            c_guard(u_merge(u_merge(sides[0], sides[1]), sides[2]), sides[3]),
            ZERO,
        )
        assert encode_conditional(ce) == expected

    def test_encoded_implicit_inverse_is_valid_everywhere(self, battery):
        encoded = encode_conditional(parse_conditional("x*y = 1 -> x^-1 = y"))
        for s in battery:
            assert check_equation(s, encoded).holds, s.name


class TestOneShape:
    def test_atom_is_a_premise_free_formula(self):
        for atom in (Equation(X, Y), Disequation(X, Y)):
            assert atom.premises == () and atom.conclusion is atom
        assert Equation(X, Y) != Disequation(X, Y)

    def test_bare_disequation(self):
        sep = Disequation(ZERO, ONE)
        assert check_conditional(Z5, sep).holds
        verdict = check_conditional(build_mdk(1), sep)
        assert not verdict.holds and verdict.witness == {}
        assert sample_check_conditional(sep, 10).holds
        assert format_conditional(sep) == "0 != 1"
        with pytest.raises(UnsupportedPremise):
            encode_conditional(sep)


class TestCheckConditional:
    def test_implicit_inverse_in_md6(self):
        ce = parse_conditional("x*y = 1 -> x^-1 = y")
        assert check_conditional(MD6, ce).holds

    def test_guarded_inverse_law_fails_off_fields(self):
        verdict = check_conditional(MD6, GIL)
        assert not verdict.holds
        assert verdict.witness == {"x": 2}
        assert MD6.mul[2][MD6.inv[2]] == 4

    def test_guarded_inverse_law_in_a_field(self):
        assert check_conditional(Z5, GIL).holds

    def test_separation(self):
        assert check_conditional(Z5, SEP).holds
        trivial = build_mdk(1)
        verdict = check_conditional(trivial, SEP)
        assert not verdict.holds and verdict.witness == {}

    def test_vacuous_premise(self):
        assert check_conditional(MD6, parse_conditional("3 = 0 -> 1 = 0")).holds
        assert not check_conditional(Z3, parse_conditional("3 = 0 -> 1 = 0")).holds


class TestSquaresSchemes:
    def test_zero_test_term_at_zero(self, small_battery):
        t = z_term(ZERO)
        for s in small_battery:
            assert eval_term(t, s) == s.one, s.name

    def test_characteristic_three_satisfies_l1(self):
        assert check_equation(Z3, ln_equation(1)).holds

    def test_l1_fails_in_z2(self):
        verdict = check_equation(build_prime_field(2), ln_equation(1))
        assert not verdict.holds
        assert verdict.witness == {"x1": 1}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_l4_fails_in_small_prime_fields(self, p):
        zp = build_prime_field(p)
        verdict = check_equation(zp, ln_equation(4))
        assert not verdict.holds
        w = verdict.witness
        total = (1 + sum(w[f"x{i}"] ** 2 for i in range(1, 5))) % p
        assert total == 0  # the witness pins a zero of 1 + sum of squares

    def test_ln_variable_count(self):
        assert ln_equation(3).variables() == {"x1", "x2", "x3"}
        with pytest.raises(ValueError):
            ln_equation(0)

    def test_higher_scheme_implies_lower_on_structures(self, small_battery):
        # Wherever the two-variable scheme holds, the one-variable one does.
        l1, l2 = ln_equation(1), ln_equation(2)
        for s in small_battery:
            if check_equation(s, l2).holds:
                assert check_equation(s, l1).holds, s.name
