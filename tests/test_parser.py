import importlib
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings

from polyharm.bipoly import BiPoly, GaussianRational, canonical_print
from polyharm.errors import DivisionByZero, ParseError
from polyharm import parser
from polyharm.parser import COEFF_BIT_BUDGET, NESTING_LIMIT, TERM_BUDGET, parse, parse_ast
from strategies import bipoly_any, grammar_texts, long_grammar_sums

Z = BiPoly.z()
ZBAR = BiPoly.zbar()


def test_parse_examples():
    assert parse("z^2 + conj(z)*abs2(z)") == Z**2 + Z * ZBAR**2
    assert parse("(1/2 + 3/4*i)*z") == BiPoly(
        {(1, 0): GaussianRational(Fraction(1, 2), Fraction(3, 4))}
    )
    assert parse("abs2(z+1)") == Z * ZBAR + Z + ZBAR + 1


def test_precedence():
    assert parse("1 + 2*z^2") == Z**2 * 2 + 1
    assert parse("2*z + 3*zbar") == Z * 2 + ZBAR * 3
    assert parse("(1+z)^2") == Z**2 + Z * 2 + 1
    assert parse("z^2*zbar") == BiPoly.monomial(2, 1)


def test_left_associativity_of_subtraction():
    assert parse("1 - 2 - 3") == BiPoly.constant(-4)


def test_head_minus_is_binary_with_implicit_zero():
    assert parse("-z") == -Z
    assert parse("-3 + z") == Z - 3
    assert parse("(-1/2 + i)*z") == BiPoly(
        {(1, 0): GaussianRational(Fraction(-1, 2), Fraction(1))}
    )
    # The implicit 0 is subtracted from the whole first term, not its first factor.
    assert parse("-z^2") == -(Z**2)
    assert parse("-z*zbar") == -(Z * ZBAR)


def test_pow_exponent_is_literal():
    assert parse("z^3") == Z**3
    assert parse("2*z^3") == Z**3 * 2


def test_imaginary_unit():
    assert parse("i*i") == BiPoly.constant(-1)
    assert parse("conj(i)") == BiPoly.constant(GaussianRational(0, -1))


def test_whitespace_insignificant():
    assert parse("  z  +   zbar ") == parse("z+zbar")


def test_rational_literals():
    assert parse("7/2") == BiPoly.constant(Fraction(7, 2))
    assert parse("0") == BiPoly.zero()


def test_division_by_zero_literal():
    with pytest.raises(DivisionByZero) as info:
        parse("1/0")
    assert info.value.position == 2


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse("2z")


def test_error_positions_are_byte_offsets():
    with pytest.raises(ParseError) as info:
        parse("z + mu")
    assert info.value.position == 4
    # a two-byte whitespace character before the bad token shifts the byte offset
    with pytest.raises(ParseError) as info:
        parse("z + w")
    assert info.value.position == 5


_NBSP, _IDEO = "\u00a0", "\u3000"  # two and three bytes in UTF-8
_DIGITS = "7" * (sys.get_int_max_str_digits() + 1)
_ATOMS = "(expected (, abs2, conj, i, integer, z, zbar)"
_BUDGET = f"budget of {TERM_BUDGET} at offset {{}}"


# (text before the error, text from the error on, message with {} for the offset)
@pytest.mark.parametrize(
    "before, after, message",
    [
        (f"z +{_IDEO}", "mu", "unknown name 'mu' at offset {} (expected abs2, conj, i, z, zbar)"),
        (f"z{_NBSP}+ ", "$", "unexpected character '$' at offset {}"),
        (f"conj{_IDEO}", "z", "unexpected 'z' at offset {} (expected ()"),
        (f"(z{_NBSP}+ 1 ", "1", "unexpected '1' at offset {} (expected ))"),
        (f"z^{_NBSP}", "zbar", "unexpected 'zbar' at offset {} (expected integer exponent)"),
        (f"1/{_IDEO}", "z", "unexpected 'z' at offset {} (expected integer denominator)"),
        (f"z +{_NBSP}", "", "unexpected end of input at offset {} " + _ATOMS),
        (f"conj({_IDEO}z", "", "unexpected end of input at offset {} (expected ))"),
        (f"z{_NBSP}", "z", "unexpected 'z' after expression at offset {} (expected *, +, -, ^, end of input)"),
        (
            f"z +{_NBSP}",
            _DIGITS,
            f"integer literal of {len(_DIGITS)} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits at offset {{}}",
        ),
        (f"z +{_IDEO}1/", "0", "division by zero in rational literal at offset {}"),
        (
            _NBSP + "(" * NESTING_LIMIT,
            "(z" + ")" * (NESTING_LIMIT + 1),
            f"'(' nests deeper than {NESTING_LIMIT} levels at offset {{}}",
        ),
        (f"{_IDEO}(1+z+zbar)", "^400", "'^' could give up to 160801 terms, over the " + _BUDGET),
        (f"{_NBSP}z^64 ", "* zbar^64", "'*' could give up to 4225 terms, over the " + _BUDGET),
        (_IDEO, "abs2(z^64)", "'abs2' could give up to 4225 terms, over the " + _BUDGET),
    ],
    ids=[
        "unknown_name", "unexpected_character", "expect_open", "expect_close", "expect_exponent",
        "expect_denominator", "end_of_input", "end_before_close", "trailing_token", "digit_limit",
        "zero_denominator", "nesting_limit", "term_budget_pow", "term_budget_mul", "term_budget_abs2",
    ],
)
def test_error_offsets_count_utf8_bytes_at_every_site(before, after, message):
    offset = len(before.encode("utf-8"))
    with pytest.raises(ParseError) as info:
        parse(before + after)
    assert info.value.position == offset
    assert str(info.value) == message.format(offset)


def test_tokenizing_a_256_kb_sum_is_linear():
    # The 256 KB sum z+z+...+z* behind one two-byte space, parsed in a fresh
    # interpreter as one CLI call runs.  Encoding the whole prefix again
    # for every token took 15 to 50 s; tokens carry character indexes, and
    # only the error's index is turned into a byte offset.
    code = """if True:
        import time
        from polyharm.errors import ParseError
        from polyharm.parser import parse_ast
        text = chr(0xA0) + "z+" * 128000 + "z*"
        start = time.perf_counter()
        try:
            parse_ast(text)
        except ParseError as exc:
            print(time.perf_counter() - start, exc.position, len(text.encode("utf-8")))
    """
    env = dict(os.environ)
    src = str(Path(parser.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    seconds, position, size = run.stdout.split()
    assert int(position) == int(size) == 2 + 2 * 128000 + 2
    assert float(seconds) < 8.0


def test_superscript_digit_is_an_unexpected_character():
    # "²".isdigit() is true, but int() cannot read it.
    with pytest.raises(ParseError) as info:
        parse("z^²")
    assert info.value.position == 2
    assert "unexpected character '²'" in str(info.value)
    # Other decimal digits are read as int() reads them.
    assert parse("z^٣") == Z**3


def test_error_carries_expected_set():
    with pytest.raises(ParseError) as info:
        parse("z +")
    assert info.value.expected
    with pytest.raises(ParseError) as info:
        parse("conj z")
    assert "(" in info.value.expected


# --- chain length and nesting depth -------------------------------------------


def test_long_sums_and_products_do_not_recurse_per_operand():
    start = time.perf_counter()
    assert parse(" + ".join(["z"] * 1000)) == Z * 1000
    assert parse(" - ".join(["zbar"] * 1000)) == ZBAR * -998
    assert parse("*".join(["z"] * 1200)) == BiPoly.monomial(1200, 0)
    assert time.perf_counter() - start < 1.0


def test_nesting_at_the_limit_is_accepted():
    # Each level is conj, a sum, a product and a power: the deepest stack per level.
    text = "z"
    for _ in range(NESTING_LIMIT):
        text = f"conj(1 + 1*{text}^1)"
    assert parse(text) == Z + NESTING_LIMIT
    assert parse("(" * NESTING_LIMIT + "zbar" + ")" * NESTING_LIMIT) == ZBAR


@pytest.mark.parametrize("opener, depth", [("conj(", 300), ("(", 400), ("abs2(", 150), ("(", NESTING_LIMIT + 1)])
def test_nesting_past_the_limit_is_rejected_at_the_opening_token(opener, depth):
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse(opener * depth + "z" + ")" * depth)
    assert time.perf_counter() - start < 1.0
    assert info.value.position == len(opener) * NESTING_LIMIT
    assert f"deeper than {NESTING_LIMIT} levels" in str(info.value)


def test_nesting_at_the_limit_is_accepted_under_the_benchmark_tracer():
    # The tracer rebinds parser.lower with a wrapper; a lower that recursed
    # through that global cost three frames per level and overflowed the
    # stack on this input.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracer import LAYERS, Tracer
    finally:
        sys.path.pop(0)
    # A module first imported during install would keep the wrappers.
    for module_name, _ in LAYERS.values():
        importlib.import_module(module_name)
    from polyharm import cli

    text = "z"
    for _ in range(NESTING_LIMIT):
        text = f"conj(1 + 1*{text}^1)"
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["order", text])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == []
    assert tracer.calls["parser.parse_ast"] == tracer.calls["parser.lower"] == 1


def test_syntax_error_is_found_before_any_arithmetic(monkeypatch):
    # parse("(1+z)^2000") alone takes seconds of exact arithmetic; the stray
    # ")" after it must be reported without running any of it.
    def no_lowering(program):
        raise AssertionError("lower ran on text with a syntax error")

    monkeypatch.setattr(parser, "lower", no_lowering)
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse("(1+z)^2000 )")
    assert time.perf_counter() - start < 0.1
    assert info.value.position == 11


# --- size budget ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(1+z+zbar)^400", 10),
        ("((1+z+zbar)^20)^20", 15),
        ("(1+z+zbar)^40 * (1+z+zbar)^30", 14),
        ("abs2((1+z)^40*zbar^30)", 0),
        ("z^64*zbar^63", 4),
        (f"z^{TERM_BUDGET}", 1),
        ("conj(z^70)*z^70", 10),
    ],
)
def test_budget_rejects_at_the_operator(monkeypatch, text, offset):
    def no_lowering(program):
        raise AssertionError("lower ran on an input over the budget")

    monkeypatch.setattr(parser, "lower", no_lowering)
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse(text)
    assert time.perf_counter() - start < 1.0
    assert info.value.position == offset
    assert f"budget of {TERM_BUDGET}" in str(info.value)


def test_budget_admits_inputs_at_its_edge():
    for text in ("z^63*zbar^63", f"z^{TERM_BUDGET - 1}", "abs2((1+z)^40*zbar^23)", "conj(z^63)*z^63"):
        parse_ast(text)


def test_budget_keeps_large_accepted_inputs():
    f = parse("(1+z+zbar)^60")
    assert len(f.numerators) == 61 * 62 // 2 and f.deg_z == f.deg_zbar == 60
    assert parse("(3 + (-2)*z + (1 - 2*i)*zbar)^13").deg_zbar == 13
    assert parse("abs2((-3 + 2*i) + 1*z + (2 - i)*z^2)^5").deg_z == 10


# --- coefficient-size budget --------------------------------------------------


@pytest.mark.parametrize(
    "text, offset, bits",
    [
        ("3^10000000", 1, 20000001),
        ("((3^1000)^1000)^1000", 15, 2000000001),
        ("3^1000000 * 3^1000000", 10, 4000001),
        ("abs2(3^1000000)", 0, 4000001),
        ("(1/3)^3000000", 5, 6000001),
        # A sum of four terms adds two bits: 2 + 2 + 2 + 2 is at most 2^3.
        ("(2 + 2 + 2 + 2)^1000000", 15, 3000001),
        ("(1+1)^200000 * 3^1000000", 13, 2200001),
    ],
)
def test_coefficient_budget_rejects_at_the_operator(monkeypatch, text, offset, bits):
    def no_lowering(program):
        raise AssertionError("lower ran on an input over the budget")

    monkeypatch.setattr(parser, "lower", no_lowering)
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse(text)
    assert time.perf_counter() - start < 0.1
    assert info.value.position == offset
    op = text[offset] if text[offset] in "^*" else "abs2"
    assert str(info.value) == (
        f"{op!r} could give coefficients of up to {bits} bits, over the budget of {COEFF_BIT_BUDGET} bits"
        f" at offset {offset}"
    )


def test_coefficient_budget_counts_utf8_bytes():
    with pytest.raises(ParseError) as info:
        parse("\u3000" + "3^10000000")
    assert info.value.position == 4


def test_term_budget_is_checked_before_the_coefficient_budget():
    with pytest.raises(ParseError) as info:
        parse("(3+z+zbar)^2000000")
    assert f"budget of {TERM_BUDGET} at offset 10" in str(info.value)


def test_coefficient_budget_admits_inputs_at_its_edge():
    for text in ("(3^1000)^1000", f"2^{COEFF_BIT_BUDGET - 1}", f"(1/2)^{COEFF_BIT_BUDGET - 1}*z", "abs2(3^500000)"):
        parse_ast(text)
    with pytest.raises(ParseError) as info:
        parse_ast(f"2^{COEFF_BIT_BUDGET}")
    assert info.value.position == 1


def _check_bounds(text):
    reader = parser._Parser(text)
    dz, dzbar, h, e = reader.parse_expr()
    f = parser.lower(reader.program)
    assert f.deg_z <= dz and f.deg_zbar <= dzbar
    assert sum(abs(re) + abs(im) for re, im in f.numerators.values()) <= 2**h
    assert f.denominator <= 2**e


@settings(max_examples=40)
@given(grammar_texts)
def test_parser_bounds_hold_for_the_mapping(text):
    _check_bounds(text)


@settings(max_examples=20)
@given(long_grammar_sums)
def test_parser_bounds_hold_for_long_sums(text):
    _check_bounds(text)


@given(bipoly_any)
def test_parse_print_round_trip(f):
    assert parse(canonical_print(f)) == f


@given(bipoly_any)
def test_print_is_fixed_point_of_reprint(f):
    text = canonical_print(f)
    assert canonical_print(parse(text)) == text


def test_literal_past_int_str_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 700)
    for text, offset in ((f"{digits}*z", 0), (f"z + 1/{digits}", 6), (f"z^{digits}", 2)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == offset
        assert str(limit) in str(info.value)
    # A literal at the limit is still read.
    assert parse("7" * limit + "*z") == Z * int("7" * limit)


def test_readme_states_the_grammar_verbatim():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`polyharm --help`:\n\n```\n{parser.GRAMMAR}```\n" in readme
