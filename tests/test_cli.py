import time

import pytest

from meadows import dump_structure, finite_meadows, load_structure, zmod_ring
from meadows.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_md6_arithmetic(self, capsys):
        code, out, _ = run(capsys, "eval", "2*2^-1", "--model", "mdk:6")
        assert (code, out) == (0, "4\n")

    def test_rational_unsafe_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "0^-1", "--model", "q")
        assert (code, out) == (0, "0 (unsafe)\n")

    def test_prime_field_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "1", "--model", "zp:5")
        assert (code, out) == (0, "1\n")

    def test_rational_assignment(self, capsys):
        code, out, _ = run(
            capsys, "eval", "x/x", "--model", "q", "--assign", "x=-3/4"
        )
        assert (code, out) == (0, "1\n")

    def test_unbound_variable_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "x+y", "--model", "mdk:6",
                           "--assign", "x=1")
        assert code == 3
        assert "y" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "x+*", "--model", "mdk:6")
        assert code == 2 and err

    def test_long_literal_on_the_rationals(self, capsys):
        code, out, _ = run(capsys, "eval", "5000", "--model", "q")
        assert (code, out) == (0, "5000\n")

    @pytest.mark.parametrize("text", ["100000000", "9" * 5000])
    def test_literal_bound_exit_code(self, capsys, text):
        code, out, err = run(capsys, "eval", text, "--model", "zp:7")
        assert (code, out) == (4, "")
        assert "above the bound of 10000" in err

    # structures.eval_term is the one evaluator that still recurses, so these
    # fail until it walks iteratively.
    @pytest.mark.xfail(strict=True, raises=RecursionError)
    @pytest.mark.parametrize(
        "term, want", [("5000", "2\n"), ("+".join(["x"] * 3000), "4\n")],
        ids=["literal", "sum"],
    )
    def test_deep_term_on_a_finite_model(self, capsys, term, want):
        try:
            code, out, _ = run(
                capsys, "eval", term, "--model", "zp:7", "--assign", "x=1"
            )
        except RecursionError as exc:
            # Raised again without its thousand frames: pytest compares the
            # locals of every pair of frames, each pair a deep term equality.
            raise RecursionError(str(exc)) from None
        assert (code, out) == (0, want)

    def test_leading_minus_after_double_dash(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", "zp:7", "--assign", "x=1", "--", "-x"
        )
        assert (code, out) == (0, "6\n")

    @pytest.mark.parametrize(
        "term",
        ["(" * 600 + "x" + ")" * 600, "-" * 3000 + "x", "x" + "^-1" * 3000],
        ids=["parentheses", "minus-signs", "inverses"],
    )
    def test_deep_nesting_is_a_parse_error(self, capsys, term):
        code, out, err = run(
            capsys, "eval", "--model", "zp:7", "--assign", "x=1", "--", term
        )
        assert (code, out) == (2, "")
        assert "nested more than" in err

    def test_bad_model_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "1", "--model", "zp:9")
        assert code == 2
        assert "not prime" in err


class TestCheck:
    def test_valid_axiom(self, capsys):
        code, out, _ = run(
            capsys, "check", "x*(x*x^-1)=x", "--model", "mdk:30"
        )
        assert code == 0
        assert "Md_30\tvalid\t-" in out

    def test_implicit_inverse_across_models(self, capsys):
        code, out, _ = run(
            capsys, "check", "x*y=1 -> inv(x)=y",
            "--model", "mdk:6", "--model", "zp:7",
        )
        assert code == 0
        assert out.count("valid") >= 2

    def test_invalid_with_witness_and_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "(1+1)*(1+1)^-1=1", "--model", "zp:2"
        )
        assert code == 1
        assert "Z_2\tinvalid\t{}" in out

    def test_open_failure_prints_witness(self, capsys):
        code, out, _ = run(capsys, "check", "x*x^-1=1", "--model", "mdk:6")
        assert code == 1
        assert "Md_6\tinvalid\tx=0" in out

    def test_long_decimal_literal(self, capsys):
        # 1500 is a chain of 1500 additions; it folds to 1500 mod 6 = 0.
        code, out, _ = run(capsys, "check", "1500 = 2", "--model", "mdk:6")
        assert (code, out) == (
            1,
            "Md_6\tinvalid\t{}\n"
            "# fields: valid\tmeadows: invalid\tagree: no\n",
        )

    def test_long_literal_on_the_rationals(self, capsys):
        code, out, _ = run(capsys, "check", "5000 = 2", "--model", "q")
        assert (code, out) == (1, "Q0\tinvalid\t{}\n")

    def test_rational_model_row(self, capsys):
        code, out, _ = run(
            capsys, "check", "inv(inv(x))=x", "--model", "q",
            "--samples", "200",
        )
        assert code == 0
        assert out.startswith("Q0\tvalid\t-")

    def test_rational_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "check", "x*x^-1=1", "--model", "q", "--samples", "200"
        )
        assert code == 1
        assert "Q0\tinvalid\tx=0" in out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_a_parse_error(self, capsys, samples):
        code, out, err = run(
            capsys, "check", "x*x^-1 = 1", "--model", "q", "--samples", samples
        )
        assert (code, out) == (2, "")
        assert "--samples" in err

    def test_summary_line(self, capsys):
        _, out, _ = run(
            capsys, "check", "x+0=x", "--model", "zp:2", "--model", "mdk:6"
        )
        assert "# fields: valid\tmeadows: valid\tagree: yes" in out

    def test_product_model(self, capsys):
        code, out, _ = run(
            capsys, "check", "x*(x*x^-1)=x", "--model", "prod:zp:2,zp:3"
        )
        assert code == 0
        assert "(Z_2 x Z_3)" in out

    def test_galois_model(self, capsys):
        code, out, _ = run(capsys, "check", "inv(x)=x*x", "--model", "gf:2,2")
        assert code == 0

    def test_guarded_conditional_on_rationals(self, capsys):
        code, out, _ = run(
            capsys, "check", "x != 0 -> x*x^-1 = 1", "--model", "q",
            "--samples", "200",
        )
        assert code == 0
        assert out.startswith("Q0\tvalid")

    def test_disequation_conclusion(self, capsys):
        code, out, _ = run(capsys, "check", "0 != 1", "--model", "mdk:6")
        assert code == 0
        code, out, _ = run(capsys, "check", "0 != 1", "--model", "mdk:1")
        assert code == 1
        assert "Md_1\tinvalid\t{}" in out

    def test_rows_follow_model_order(self, capsys):
        code, out, _ = run(
            capsys, "check", "x*y = 1 -> x^-1 = y",
            "--model", "zp:5", "--model", "q", "--model", "mdk:6",
        )
        assert code == 0
        assert out == (
            "Z_5\tvalid\t-\nQ0\tvalid\t-\nMd_6\tvalid\t-\n"
            "# fields: valid\tmeadows: valid\tagree: yes\n"
        )

    def test_raw_ring_with_inverse_exits_three(self, capsys, tmp_path):
        # The conclusion holds everywhere; the premise still needs ^-1.
        path = tmp_path / "z70.ring"
        path.write_text(dump_structure(zmod_ring(70)), encoding="utf-8")
        code, out, err = run(
            capsys, "check", "x = x & y^-1 = y -> x+0 = x",
            "--model", f"file:{path}",
        )
        assert (code, out) == (3, "")
        assert "no inverse table" in err

    def test_every_model_resolves_before_checking(self, capsys, tmp_path):
        path = tmp_path / "z6.ring"
        path.write_text(dump_structure(zmod_ring(6)), encoding="utf-8")
        code, _, err = run(
            capsys, "check", "x^-1 = x^-1",
            "--model", f"file:{path}", "--model", "zp:9",
        )
        assert code == 2
        assert "not prime" in err

    def test_seed_changes_sampling_reproducibly(self, capsys):
        first = run(capsys, "check", "inv(inv(x))=x", "--model", "q",
                    "--samples", "50", "--seed", "7")
        second = run(capsys, "check", "inv(inv(x))=x", "--model", "q",
                     "--samples", "50", "--seed", "7")
        assert first == second


class TestTable:
    def test_md6_inverse_row(self, capsys):
        code, out, _ = run(capsys, "table", "mdk:6")
        assert code == 0
        assert "inv:\n0 1 2 3 4 5\n" in out

    def test_md10_inverse_row(self, capsys):
        code, out, _ = run(capsys, "table", "mdk:10")
        assert code == 0
        assert "inv:\n0 1 8 7 4 5 6 3 2 9\n" in out

    def test_output_is_loadable(self, capsys):
        _, out, _ = run(capsys, "table", "gf:2,2")
        s = load_structure(out)
        assert s.size == 4 and s.name == "GF(2^2)"

    def test_rationals_have_no_table(self, capsys):
        code, _, err = run(capsys, "table", "q")
        assert code == 2 and err


class TestEncode:
    def test_three_premise_display(self, capsys):
        code, out, _ = run(capsys, "encode", "t1=0 & t2=0 & t3=0 -> t=0")
        assert code == 0
        from meadows import encode_conditional, format_equation, parse_conditional

        expected = format_equation(
            encode_conditional(parse_conditional("t1=0 & t2=0 & t3=0 -> t=0"))
        )
        assert out == expected + "\n"
        assert out.endswith("= 0\n")

    def test_bare_equation_is_normalized(self, capsys):
        code, out, _ = run(capsys, "encode", "t=0")
        assert (code, out) == (0, "t-0 = 0\n")

    def test_long_literal(self, capsys):
        from meadows import encode_conditional, parse_equation

        code, out, _ = run(capsys, "encode", "1500 = 2")
        assert code == 0
        assert out.startswith("1+1+1+") and out.endswith("-(1+1) = 0\n")
        assert parse_equation(out) == encode_conditional(parse_equation("1500 = 2"))

    def test_guarded_premise_rejected(self, capsys):
        code, _, err = run(capsys, "encode", "x != 0 -> x*x^-1 = 1")
        assert code == 2
        assert "disequation" in err

    def test_oversized_encoding_is_refused_before_printing(self, capsys):
        # 15 premises would print a tree of 7.2e9 nodes, about 11 GB.
        premises = " & ".join(f"x{i} = 0" for i in range(15))
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", premises + " -> y = 0")
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert "bound" in err


class TestExpand:
    def test_regular_ring_gets_inverse_row(self, capsys, tmp_path):
        path = tmp_path / "z6.ring"
        path.write_text(dump_structure(zmod_ring(6)), encoding="utf-8")
        code, out, _ = run(capsys, "expand", str(path))
        assert code == 0
        assert "inv:\n0 1 2 3 4 5\n" in out
        assert load_structure(out).inv == (0, 1, 2, 3, 4, 5)

    def test_non_regular_ring_exit_five(self, capsys, tmp_path):
        path = tmp_path / "z4.ring"
        path.write_text(dump_structure(zmod_ring(4)), encoding="utf-8")
        code, out, err = run(capsys, "expand", str(path))
        assert code == 5
        assert err.strip() == "not regular: witness 2"
        assert out == ""

    def test_existing_inverse_row_is_recomputed(self, capsys, tmp_path):
        from dataclasses import replace

        wrong = replace(zmod_ring(6), inv=(0, 1, 3, 2, 5, 4))
        path = tmp_path / "z6-wrong.struct"
        path.write_text(dump_structure(wrong), encoding="utf-8")
        code, out, _ = run(capsys, "expand", str(path))
        assert code == 0
        assert load_structure(out).inv == (0, 1, 2, 3, 4, 5)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "expand", "/nonexistent/ring")
        assert code == 2 and err


class TestDecompose:
    def test_md30(self, capsys):
        code, out, _ = run(capsys, "decompose", "mdk:30")
        assert code == 0
        assert "components: 3" in out
        assert "component 1: onto Z_2 size 2" in out
        assert "component 2: onto Z_3 size 3" in out
        assert "component 3: onto Z_5 size 5" in out
        assert "product size: 30" in out
        assert "diagonal injective: yes" in out

    def test_trivial_exit_six(self, capsys):
        code, _, err = run(capsys, "decompose", "mdk:1")
        assert code == 6 and err


class TestClassify:
    def test_rows_up_to_seven(self, capsys):
        code, out, _ = run(capsys, "classify", "--bound", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# k\tsize\tcharacteristic\tminimal\tfield"
        assert "6\t6\t6\tyes\tno" in lines
        assert "7\t7\t7\tyes\tyes" in lines
        assert "1\t1\t1\tyes\tno" in lines

    def test_bound_past_the_table_limit_refuses_up_front(
        self, capsys, monkeypatch
    ):
        built = []
        build = finite_meadows.build_mdk
        monkeypatch.setattr(
            finite_meadows, "build_mdk", lambda k: built.append(k) or build(k)
        )
        code, out, err = run(capsys, "classify", "--bound", "100000")
        assert (code, out) == (4, "")
        assert "Md_1027" in err and "bound" in err
        assert built == []


class TestPlumbing:
    def test_byte_determinism(self, capsys):
        first = run(capsys, "classify", "--bound", "15")
        second = run(capsys, "classify", "--bound", "15")
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.txt"
        code, out, _ = run(capsys, "table", "mdk:6", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "inv:\n0 1 2 3 4 5\n" in target.read_text(encoding="utf-8")

    def test_file_model_round_trip(self, capsys, tmp_path):
        path = tmp_path / "md6.struct"
        first = run(capsys, "table", "mdk:6", "--out", str(path))
        assert first[0] == 0
        code, out, _ = run(capsys, "eval", "2*2^-1", "--model", f"file:{path}")
        assert (code, out) == (0, "4\n")

    def test_unknown_model_prefix(self, capsys):
        code, _, err = run(capsys, "eval", "1", "--model", "weird:3")
        assert code == 2 and err

    def test_size_bound_exit_code(self, capsys):
        code, _, err = run(capsys, "table", "gf:2,21")
        assert code == 4
        assert "bound" in err

    @pytest.mark.parametrize(
        "spec", [
            "gf:2,11", "prod:zp:13,zp:13,zp:13,zp:13", "mdk:99991",
            "mdk:1000000000000000000000000000057",
            "zp:1000000000000000000000000000057", "gf:2,100000",
        ],
    )
    def test_table_entry_bound_exit_code(self, capsys, spec):
        # 2048^2, 28561^2 and 99991^2 table entries: refused before any
        # table is built.  The 31-digit moduli are refused before the
        # trial division that would take hours, and 2^100000 is neither
        # computed nor written out.
        start = time.perf_counter()
        code, out, err = run(capsys, "table", spec)
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert "bound" in err

    def test_huge_modulus_with_a_small_radical(self, capsys):
        code, out, _ = run(capsys, "table", f"mdk:{2**100}")
        assert (code, out) == (0, dump_structure(finite_meadows.build_mdk(2)))
        assert out.startswith("name: Md_2\n")

    @pytest.mark.parametrize("size, want", [("5000", 4), ("-5000", 2)])
    def test_file_size_is_checked_before_the_rows(
        self, capsys, tmp_path, size, want
    ):
        path = tmp_path / "big.txt"
        path.write_text(f"name: big\nsize: {size}\nzero: 0\none: 1\nadd:\n")
        code, out, err = run(capsys, "table", f"file:{path}")
        assert (code, out) == (want, "")
        assert ("bound" in err) == (want == 4)
