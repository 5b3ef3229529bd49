import pytest
from hypothesis import given, strategies as st

from meadows import (
    MD, REF, SIP,
    EvalTrace, ParseError, Q_ONE, Q_ZERO, RationalZT, UnboundVariable,
    eval_rational, ln_equation, numeral, parse_equation, parse_rational,
    parse_term, q_add, q_inv, q_mul, q_neg, sample_assignments, sample_check,
    sample_check_conditional,
)
from meadows import rationals as rationals_module

rationals = st.builds(
    RationalZT,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


class TestCanonicalForm:
    def test_reduction(self):
        assert RationalZT(2, 4) == RationalZT(1, 2)

    def test_sign_lives_in_the_numerator(self):
        assert RationalZT(1, -2) == RationalZT(-1, 2)
        assert RationalZT(-1, -2) == RationalZT(1, 2)

    def test_zero_has_denominator_one(self):
        assert RationalZT(0, 17) == Q_ZERO
        assert Q_ZERO.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalZT(1, 0)

    def test_str(self):
        assert str(RationalZT(5, 6)) == "5/6"
        assert str(RationalZT(-5, 2)) == "-5/2"
        assert str(RationalZT(7)) == "7"

    @given(rationals)
    def test_always_lowest_terms(self, q):
        from math import gcd

        assert q.denominator >= 1
        assert gcd(abs(q.numerator), q.denominator) == 1


class TestArithmetic:
    def test_grade_school_addition(self):
        assert q_add(RationalZT(1, 2), RationalZT(1, 3)) == RationalZT(5, 6)

    def test_multiplicative_cancellation(self):
        assert q_mul(RationalZT(2, 3), RationalZT(3, 2)) == Q_ONE

    @given(rationals)
    def test_additive_inverse(self, q):
        assert q_add(q, q_neg(q)) == Q_ZERO

    @given(rationals, rationals, rationals)
    def test_distributivity_exact(self, a, b, c):
        assert q_mul(a, q_add(b, c)) == q_add(q_mul(a, b), q_mul(a, c))

    def test_operator_sugar(self):
        assert RationalZT(1, 2) + RationalZT(1, 3) == RationalZT(5, 6)
        assert -RationalZT(2, 5) == RationalZT(-2, 5)
        assert RationalZT(1, 2) - RationalZT(1, 2) == Q_ZERO
        assert RationalZT(2, 3) * RationalZT(3, 4) == RationalZT(1, 2)


class TestInverse:
    def test_zero_totalized(self):
        assert q_inv(Q_ZERO) == Q_ZERO

    def test_swap(self):
        assert q_inv(RationalZT(2, 3)) == RationalZT(3, 2)

    def test_sign_normalization(self):
        # Forced by compatibility with negation: inv(-x) = -(inv x).
        assert q_inv(RationalZT(-2, 5)) == RationalZT(-5, 2)

    @given(rationals)
    def test_commutes_with_negation(self, q):
        assert q_inv(q_neg(q)) == q_neg(q_inv(q))

    @given(rationals)
    def test_involution(self, q):
        assert q_inv(q_inv(q)) == q


class TestEvalTrace:
    def test_zero_over_zero_is_unsafe(self):
        trace = eval_rational(parse_term("x/x"), {"x": Q_ZERO})
        assert trace == EvalTrace(Q_ZERO, True)

    def test_seven_over_seven_is_safe(self):
        trace = eval_rational(parse_term("x/x"), {"x": RationalZT(7)})
        assert trace == EvalTrace(Q_ONE, False)

    def test_restricted_inverse_instance(self):
        trace = eval_rational(
            parse_term("x*(x*x^-1)"), {"x": RationalZT(-3, 4)}
        )
        assert trace == EvalTrace(RationalZT(-3, 4), False)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_rational(parse_term("x"), {})

    @given(rationals, rationals)
    def test_unsafe_flag_is_monotone(self, a, b):
        composite = parse_term("(x/x)*(y+1)")
        part = parse_term("x/x")
        whole = eval_rational(composite, {"x": a, "y": b})
        inner = eval_rational(part, {"x": a})
        assert whole.unsafe_division_used == inner.unsafe_division_used

    @pytest.mark.parametrize(
        "text, binding, want",
        [
            (None, {}, EvalTrace(RationalZT(100_000), False)),
            ("+".join(["x"] * 3000), {"x": RationalZT(1, 3)},
             EvalTrace(RationalZT(1000), False)),
            ("*".join(["x^-1", "y"] * 1500),
             {"x": RationalZT(-1), "y": Q_ZERO}, EvalTrace(Q_ZERO, False)),
            ("*".join(["x^-1", "y"] * 1500),
             {"x": Q_ZERO, "y": RationalZT(-1)}, EvalTrace(Q_ZERO, True)),
        ],
        ids=["numeral", "sum", "product", "product-unsafe"],
    )
    def test_deep_terms(self, text, binding, want):
        term = numeral(100_000) if text is None else parse_term(text)
        assert eval_rational(term, binding) == want

    def test_unsafe_union_over_subterms(self):
        t = parse_term("x/x + y/y")
        flags = {
            (a.is_zero(), b.is_zero()): eval_rational(
                t, {"x": a, "y": b}
            ).unsafe_division_used
            for a in (Q_ZERO, Q_ONE)
            for b in (Q_ZERO, Q_ONE)
        }
        assert flags == {
            (False, False): False,
            (True, False): True,
            (False, True): True,
            (True, True): True,
        }


class TestSampling:
    def test_deterministic_given_seed(self):
        a = list(sample_assignments(["x", "y"], 20, seed=42))
        b = list(sample_assignments(["x", "y"], 20, seed=42))
        assert a == b
        c = list(sample_assignments(["x", "y"], 20, seed=43))
        assert a != c

    def test_singular_points_are_over_weighted(self):
        values = [
            a["x"] for a in sample_assignments(["x"], 400, seed=0)
        ]
        zeros = sum(1 for v in values if v == Q_ZERO)
        assert zeros >= 20  # expectation 50 at probability 1/8

    def test_reflection_has_no_counterexample(self):
        verdict = sample_check(parse_equation("inv(inv(x)) = x"), 1000, seed=0)
        assert verdict.holds and verdict.samples == 1000

    def test_fourth_squares_scheme_clean(self):
        assert sample_check(ln_equation(4), 1000, seed=0).holds

    def test_unguarded_inverse_has_zero_counterexample(self):
        verdict = sample_check(parse_equation("x*x^-1 = 1"), 500, seed=0)
        assert not verdict.holds
        assert verdict.counterexample == {"x": Q_ZERO}

    def test_closed_subterms_are_valued_once_per_formula(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(None)
            return q_add(a, b)

        monkeypatch.setattr(rationals_module, "q_add", counted)
        verdict = sample_check_conditional(
            parse_equation("x + 30 = 30 + x"), 10, seed=0
        )
        assert verdict.holds
        # The two literals are one shape: 29 additions for it, then the two
        # sides at each sample.
        assert len(calls) == 29 + 2 * 10

    def test_meadow_laws_exact_at_samples(self):
        for name, eq in {**MD, **SIP, **REF}.items():
            assert sample_check(eq, 300, seed=1).holds, name


class TestLiteralSyntax:
    def test_fraction(self):
        assert parse_rational("5/6") == RationalZT(5, 6)

    def test_negative(self):
        assert parse_rational("-2") == RationalZT(-2)
        assert parse_rational("-2/5") == RationalZT(-2, 5)

    def test_canonicalized_on_read(self):
        assert parse_rational("4/6") == RationalZT(2, 3)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/ 2"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)
