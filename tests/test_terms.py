import tracemalloc

import pytest
from hypothesis import given, strategies as st

from meadows import (
    ONE, ZERO, Add, Inv, Mul, Neg, One, ParseError, SizeOverflow, Var, Zero,
    eval_rational, free_vars, numeral, parse_term, print_term, rational,
    substitute, term_size,
)
from meadows import terms as terms_module
from meadows.terms import _MAX_LITERAL, Program, compile_terms

X, Y, Z = Var("x"), Var("y"), Var("z")


leaves = st.one_of(
    st.just(ZERO),
    st.just(ONE),
    st.builds(Var, st.sampled_from(["x", "y", "z", "a_1"])),
)
terms = st.recursive(
    leaves,
    lambda child: st.one_of(
        st.builds(Neg, child),
        st.builds(Inv, child),
        st.builds(Add, child, child),
        st.builds(Mul, child, child),
    ),
    max_leaves=30,
)


class TestParse:
    def test_inverse_of_zero(self):
        assert parse_term("0^-1") == Inv(ZERO)

    def test_restricted_inverse_shape(self):
        assert parse_term("x*(x*x^-1)") == Mul(X, Mul(X, Inv(X)))

    def test_literal_three_is_left_nested_ones(self):
        assert parse_term("3") == Add(Add(ONE, ONE), ONE)

    def test_literal_zero_and_one(self):
        assert parse_term("0") == ZERO
        assert parse_term("1") == ONE

    def test_precedence_mul_over_add(self):
        assert parse_term("x+y*z") == Add(X, Mul(Y, Z))

    def test_division_associates_left(self):
        assert parse_term("x/y/z") == Mul(Mul(X, Inv(Y)), Inv(Z))

    def test_division_desugars(self):
        assert parse_term("x/y") == Mul(X, Inv(Y))

    def test_subtraction_desugars(self):
        assert parse_term("x-y") == Add(X, Neg(Y))

    def test_functional_inverse(self):
        assert parse_term("inv(x+y)") == Inv(Add(X, Y))

    def test_postfix_stacks(self):
        assert parse_term("x^-1^-1") == Inv(Inv(X))

    def test_postfix_inverses_count_as_nesting(self):
        chain = "x" + "^-1" * 100
        assert parse_term(f"{chain} + -{chain[:-3]}") is not None
        for deep in (chain + "^-1", f"({chain})", f"-{chain}", f"inv({chain})"):
            with pytest.raises(ParseError, match="nested more than 100"):
                parse_term(deep)
        # Chains in parentheses add up along the path into the term.
        groups = "x"
        for _ in range(12):
            groups = f"({groups}{'^-1' * 8})"
        with pytest.raises(ParseError, match="nested more than 100"):
            parse_term(groups)

    def test_unary_minus_binds_tighter_than_mul_argument(self):
        assert parse_term("-x*y") == Mul(Neg(X), Y)
        assert parse_term("x*-y") == Mul(X, Neg(Y))

    def test_variable_names(self):
        assert parse_term("ab_3") == Var("ab_3")

    def test_literal_bound(self):
        assert _MAX_LITERAL >= 5000
        assert term_size(parse_term(f"00{_MAX_LITERAL}")) == 2 * _MAX_LITERAL - 1
        with pytest.raises(SizeOverflow, match="position 2 "):
            parse_term(f"x+{_MAX_LITERAL + 1}")

    @pytest.mark.parametrize("text", ["100000000", "9" * 5000])
    def test_literal_above_the_bound_is_refused_before_it_is_built(self, text):
        # The second is past Python's limit on int-string conversion.
        tracemalloc.start()
        try:
            with pytest.raises(SizeOverflow):
                parse_term(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize(
        "bad", ["x +", "X", "(x", "x)", "x ^- 1", "1 2", "inv x", "?", "x=y"]
    )
    def test_malformed_inputs_raise_with_position(self, bad):
        with pytest.raises(ParseError) as err:
            parse_term(bad)
        assert err.value.position >= 0

    def test_error_position_points_at_fault(self):
        with pytest.raises(ParseError) as err:
            parse_term("x+*y")
        assert err.value.position == 2


class TestNumeral:
    def test_zero(self):
        assert numeral(0) == ZERO

    def test_one_unfolding(self):
        assert numeral(1) == Add(ZERO, ONE)

    def test_two_unfoldings(self):
        assert numeral(2) == Add(Add(ZERO, ONE), ONE)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            numeral(-1)


class TestSubstitute:
    def test_instantiating_a_scheme(self):
        two = numeral(2)
        assert substitute(Mul(X, Inv(X)), {"x": two}) == Mul(two, Inv(two))

    def test_unbound_variable_fixed(self):
        assert substitute(Y, {"x": ONE}) == Y

    def test_no_capture_possible(self):
        assert substitute(Inv(X), {"x": Inv(X)}) == Inv(Inv(X))

    @given(terms, terms)
    def test_size_bound(self, t, image):
        result = substitute(t, {"x": image})
        assert term_size(result) <= term_size(t) * max(term_size(image), 1)


class TestFreeVars:
    def test_closed(self):
        assert free_vars(ZERO) == set()

    def test_single(self):
        assert free_vars(Mul(X, Inv(X))) == {"x"}

    def test_pair(self):
        assert free_vars(Add(X, Y)) == {"x", "y"}


class TestPrint:
    def test_emits_postfix_inverse(self):
        assert print_term(Inv(X)) == "x^-1"

    def test_restricted_inverse_round_trip_text(self):
        assert print_term(Mul(X, Mul(X, Inv(X)))) == "x*(x*x^-1)"

    def test_subtraction_sugar(self):
        assert print_term(Add(X, Neg(Y))) == "x-y"

    def test_numeral_text(self):
        assert print_term(numeral(2)) == "0+1+1"

    def test_parenthesizes_negated_product_under_inverse(self):
        t = Inv(Neg(Mul(X, Y)))
        assert print_term(t) == "(-(x*y))^-1"
        assert parse_term(print_term(t)) == t

    @given(terms)
    def test_round_trip(self, t):
        assert parse_term(print_term(t)) == t


# Deep inputs: a literal-sized numeral and left-deep sums and products, each
# far deeper than the interpreter's recursion limit.
DEEP = {
    "numeral": lambda: numeral(100_000),
    "sum": lambda: parse_term("+".join(["x"] * 3000)),
    "product": lambda: parse_term("*".join(["x", "y"] * 1500)),
}


@pytest.mark.parametrize("name", DEEP)
def test_every_walk_takes_deep_terms(name):
    t = DEEP[name]()
    assert term_size(t) == {"numeral": 200_001, "sum": 5999, "product": 5999}[name]
    assert free_vars(t) == {"numeral": set(), "sum": {"x"}, "product": {"x", "y"}}[name]
    # Substitution adds one node for each occurrence of x.
    grown = {"numeral": 0, "sum": 3000, "product": 1500}[name]
    image = substitute(t, {"x": Inv(Var("z"))})
    assert term_size(image) == term_size(t) + grown
    assert free_vars(image) == free_vars(t) - {"x"} | ({"z"} if grown else set())
    text = print_term(t)
    assert text.startswith({"numeral": "0+1+1", "sum": "x+x+x", "product": "x*y*x"}[name])
    copy = parse_term(text)
    assert copy is not t and {t: 1}[copy] == 1
    assert copy != Neg(t) and (image == t) == (not grown)
    assert repr(t) == f"parse_term({text!r})"


class TestEquality:
    def test_types_distinguish_nodes(self):
        assert Add(X, Y) != Mul(X, Y)
        assert Neg(X) != Inv(X)
        assert ZERO != ONE
        assert Var("x") != "x"

    def test_sharing_does_not_matter(self):
        shared = Add(X, Y)
        assert Mul(shared, shared) == Mul(Add(Var("x"), Y), Add(X, Var("y")))
        assert hash(Mul(shared, shared)) == hash(Mul(Add(X, Y), Add(X, Y)))
        assert Add(X, Y) != Add(Y, X)

    @given(terms, terms)
    def test_agrees_with_text(self, s, t):
        assert (s == t) == (print_term(s) == print_term(t))
        if s == t:
            assert hash(s) == hash(t)


def test_a_term_compiles_once(monkeypatch):
    calls = []

    def spy(roots):
        calls.append(list(roots))
        return compile_terms(calls[-1])

    monkeypatch.setattr(terms_module, "compile_terms", spy)
    t = parse_term("(x+1)*y^-1-x")
    copy = parse_term("(x+1)*y^-1-x")
    assert hash(t) == hash(t) == hash(copy)
    assert t == copy and copy == t
    assert free_vars(t) == {"x", "y"} and term_size(t) == 9
    assert substitute(t, {}) == t
    assert eval_rational(t, {"x": rational(1), "y": rational(2)}).value == rational(0)
    assert [sum(c[0] is s for c in calls) for s in (t, copy)] == [1, 1]
    assert all(len(c) == 1 for c in calls)


def recursive_program(roots):
    """compile_terms by plain recursion over the trees: each shape numbered
    when its children are, left before right."""
    shapes = {}

    def visit(t):
        if type(t) in (Add, Mul):
            shape = (type(t), visit(t.left), visit(t.right))
        elif type(t) in (Neg, Inv):
            shape = (type(t), visit(t.arg), None)
        else:
            shape = (type(t), getattr(t, "name", None), None)
        return shapes.setdefault(shape, len(shapes))

    roots = [visit(t) for t in roots]
    return Program(list(shapes), roots)


def rebuilt(program):
    """The term of each shape, by index."""
    out = []
    for kind, a, b in program.shapes:
        if kind in (Add, Mul):
            out.append(kind(out[a], out[b]))
        elif kind in (Neg, Inv):
            out.append(kind(out[a]))
        else:
            out.append(Var(a) if kind is Var else kind())
    return out


def copy_of(t):
    """A structural copy of t whose nodes keep no program yet."""
    program = recursive_program((t,))
    return rebuilt(program)[program.roots[0]]


class TestProgram:
    def test_distinct_shapes_children_first(self):
        shared = Mul(X, Inv(X))
        t = Add(shared, Neg(Mul(Var("x"), Inv(Var("x")))))
        program = compile_terms((t, shared))
        assert [print_term(n) for n in rebuilt(program)] == [
            "x", "x^-1", "x*x^-1", "-(x*x^-1)", "x*x^-1-x*x^-1"
        ]
        assert program.roots == [4, 2]

    @given(terms, terms)
    def test_each_shape_once_after_its_children(self, s, t):
        program = compile_terms((t, s, t))
        assert program == recursive_program((t, s, t))
        assert len(set(program.shapes)) == len(program.shapes)
        for i, (kind, a, b) in enumerate(program.shapes):
            if kind in (Add, Mul, Neg, Inv):
                assert a < i and (b is None) == (kind in (Neg, Inv))
            if kind in (Add, Mul):
                assert b < i
        terms_by_index = rebuilt(program)
        assert [terms_by_index[i] for i in program.roots] == [t, s, t]
        alone = compile_terms((t,))
        assert alone.roots == [len(alone.shapes) - 1]

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 1500, 5000])
    def test_a_literal_keeps_the_program_its_walk_gives(self, k):
        copy = One() if k else Zero()
        for _ in range(k - 1):
            copy = Add(copy, One())
        literal = terms_module._literal(k)
        assert literal.program == compile_terms((copy,))
        assert literal == copy and hash(literal) == hash(copy)

    @given(terms, terms)
    def test_kept_programs_are_numbered_as_the_walk_numbers(self, s, t):
        # The second root shares the shapes of s with the first.
        u = Add(t, s)
        want = recursive_program((s, u))
        for keep in ((), (0,), (1,), (0, 1)):
            roots = (copy_of(s), copy_of(u))
            for i in keep:
                roots[i].program
            assert compile_terms(roots) == want, keep

    def test_literals_after_other_roots(self):
        # Within the recursion limit of recursive_program.
        roots = [parse_term("x + 1"), parse_term("3"), parse_term("300"),
                 parse_term("2")]
        assert compile_terms(roots) == recursive_program(
            [copy_of(t) for t in roots]
        )

    def test_nodes_stay_immutable(self):
        t = parse_term("5000")
        with pytest.raises(AttributeError):
            t.left = ONE
        with pytest.raises(AttributeError):
            X.name = "y"
        assert not hasattr(t, "__dict__")
