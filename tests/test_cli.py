import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polyharm
from polyharm.cli import MAX_FD_POINTS, _positive_int_at_most, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order(capsys):
    code, out, _ = run_cli(capsys, "order", "z*zbar")
    assert code == 0 and out == "2\n"


def test_order_json(capsys):
    code, out, _ = run_cli(capsys, "order", "z*zbar", "--json")
    assert code == 0 and json.loads(out) == {"order": 2}


def test_dz_dzbar_laplacian(capsys):
    code, out, _ = run_cli(capsys, "dz", "z^2*zbar^3")
    assert code == 0 and out.strip() == "2*z*zbar^3"
    code, out, _ = run_cli(capsys, "dzbar", "z^4")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "laplacian", "--times", "2", "z^2*zbar^3")
    assert code == 0 and out.strip() == "192*zbar"


def test_almansi(capsys):
    code, out, _ = run_cli(capsys, "almansi", "z^2*zbar^3 + z", "--json")
    assert code == 0
    assert json.loads(out) == {"order": 3, "components": ["z", "0", "zbar"]}


def test_compose_argument_order(capsys):
    # OUTER INNER: the inner mapping is applied first
    code, out, _ = run_cli(capsys, "compose", "z^2", "z + zbar")
    assert code == 0 and out.strip() == "zbar^2 + 2*z*zbar + z^2"
    code, out, _ = run_cli(capsys, "compose", "zbar", "z^2")
    assert out.strip() == "zbar^2"


def test_classify_json_is_flat(capsys):
    code, out, _ = run_cli(capsys, "classify", "3*z + 2*zbar + 1", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["is_affine"] is True
    assert record["harmonic_degree"] == 1
    assert all(not isinstance(v, (dict, list)) for v in record.values())


def test_witness_violation_matches_contract(capsys):
    code, out, _ = run_cli(capsys, "witness", "--theorem", "1b", "--l", "1", "z^2")
    assert code == 1
    assert "verdict: Violation" in out
    assert "witness: zbar^2 + z^2" in out
    assert "composition_order: 3" in out


def test_witness_compliant_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "witness", "--theorem", "1a", "--l", "3", "z + zbar", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "Compliant"


def test_witness_pre_decided_for_large_l(capsys):
    code, out, _ = run_cli(capsys, "witness", "--theorem", "2a", "--l", "3", "z*zbar", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Violation"
    assert payload["witness"] == "zbar + z^3" and payload["composition_order"] == 4
    code, out, _ = run_cli(capsys, "witness", "--theorem", "2a", "--l", "3", "z*zbar + z")
    assert code == 1
    assert out == (
        "verdict: Violation\nwitness: zbar + z^3\ncomposition_order: 4\nrequired_bound: 3\nfamily: w^m + conj(w)\n"
    )


def test_witness_q_validation(capsys):
    code, _, err = run_cli(capsys, "witness", "--theorem", "1c", "--l", "2", "z^2")
    assert code == 2 and "requires --q" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--theorem", "1a", "--l", "2", "--q", "2"], "--theorem 1a fixes --q 0"),
        (["--theorem", "1b", "--l", "2", "--q", "0"], "--theorem 1b fixes --q 1"),
        (["--theorem", "2a", "--l", "2", "--q", "3"], "--theorem 2a fixes --q 1"),
        (["--theorem", "1c", "--l", "2", "--q", "1"], "--theorem 1c requires --q >= 2"),
        (["--theorem", "2b", "--l", "2"], "--theorem 2b requires --q >= 2"),
        (["--theorem", "3b", "--l", "2", "--q", "2"], "--theorem 3b fixes --l 1"),
        (["--theorem", "3c", "--l", "1", "--q", "2"], "--theorem 3c fixes --l 2"),
        (["--theorem", "3c", "--q", "1"], "--theorem 3c requires --q >= 2"),
        (["--theorem", "2b", "--q", "2"], "--theorem 2b requires --l"),
    ],
)
def test_witness_theorem_table_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "witness", *argv, "z*zbar")
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "theorem, flags, search",
    [
        ("1a", ["--l", "1"], "witness_post"),
        ("1b", ["--l", "1"], "witness_post"),
        ("1c", ["--l", "1", "--q", "2"], "witness_post"),
        ("2a", ["--l", "1"], "witness_pre"),
        ("2b", ["--l", "1", "--q", "2"], "witness_pre"),
        ("3b", ["--q", "2"], "witness_pre"),
        ("3c", ["--q", "3"], "witness_pre"),
    ],
)
def test_witness_theorem_table_routes_each_theorem(capsys, monkeypatch, theorem, flags, search):
    import polyharm.theorems as theorems

    calls = []
    fixed = {"1a": (0, 1), "1b": (1, 1), "1c": (2, 1), "2a": (1, 1), "2b": (2, 1), "3b": (2, 1), "3c": (3, 2)}

    def record(f, q, l):
        calls.append((search, q, l))
        return theorems.WitnessResult(theorems.COMPLIANT, None, None, l, "")

    monkeypatch.setattr(theorems, f"find_{search}", record)
    code, _, _ = run_cli(capsys, "witness", "--theorem", theorem, *flags, "z")
    assert code == 0 and calls == [(search, *fixed[theorem])]


def test_witness_forced_l_for_theorem_3(capsys):
    code, out, _ = run_cli(capsys, "witness", "--theorem", "3b", "--q", "2", "z^2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["required_bound"] == 1 and payload["verdict"] == "Violation"
    code, _, err = run_cli(capsys, "witness", "--theorem", "3b", "--q", "2", "--l", "5", "z^2")
    assert code == 2 and "fixes --l" in err


def test_verify_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "prop22", "--seed", "1", "--cases", "40", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "prop22"
    assert payload["cases_run"] == 40
    assert payload["failures"] == 0
    assert payload["seed"] == 1
    assert payload["first_failure"] is None


def test_verify_output_is_deterministic(capsys):
    first = run_cli(capsys, "verify", "--suite", "thm1_suff", "--seed", "4", "--cases", "20", "--json")
    second = run_cli(capsys, "verify", "--suite", "thm1_suff", "--seed", "4", "--cases", "20", "--json")
    assert first == second


def test_seed_env_fallback_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("POLYHARM_SEED", "77")
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop21", "--cases", "5", "--json")
    assert code == 0 and json.loads(out)["seed"] == 77
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "prop21", "--cases", "5", "--seed", "8", "--json"
    )
    assert code == 0 and json.loads(out)["seed"] == 8


def test_conjecture_subcommand(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--cases", "20", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates"] == 0
    assert payload["l_values"] == [3, 4]
    assert sorted(payload) == [
        "candidates", "cases_run", "failures", "first_failure", "l_values", "seed", "suite",
    ]


def test_conjecture_l_validation(capsys):
    # Every positive order is a check of the w^(2l) bound, l = 1 and 2 included.
    code, out, _ = run_cli(capsys, "conjecture", "--cases", "20", "--l", "2")
    assert code == 0 and "l_values: 2\n" in out and "failures: 0\n" in out
    code, out, err = run_cli(capsys, "conjecture", "--cases", "5", "--l", "0")
    assert code == 2 and out == "" and "argument --l: must be a positive integer" in err


def test_conjecture_l_is_at_most_40(capsys):
    # Each power-loop case builds up to 2l powers of f, so a large l would hang.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "conjecture", "--l", "41")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "argument --l: must be at most 40" in err
    code, out, _ = run_cli(capsys, "conjecture", "--l", "40", "--cases", "1")
    assert code == 0 and "l_values: 40\n" in out and "failures: 0\n" in out


def test_conjecture_multi_valued_l(capsys):
    default = run_cli(capsys, "conjecture", "--cases", "20", "--json")
    assert run_cli(capsys, "conjecture", "--l", "3", "4", "--cases", "20", "--json") == default
    code, out, _ = run_cli(capsys, "conjecture", "--l", "3", "5", "6", "--cases", "10")
    assert code == 0 and "l_values: 3, 5, 6\n" in out
    code, out, err = run_cli(capsys, "conjecture", "--cases", "5", "--l", "4", "0")
    assert code == 2 and out == "" and "argument --l: must be a positive integer" in err


def test_verify_all_uses_the_table_counts_unless_cases_is_given(capsys, monkeypatch):
    import polyharm.theorems as theorems

    counts = {name: index + 1 for index, name in enumerate(reversed(theorems.SUITE_NAMES))}
    monkeypatch.setattr(theorems, "DEFAULT_CASES", counts)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "2", "--json")
    suites = json.loads(out)["suites"]
    assert code == 0
    assert [(s["suite"], s["cases_run"], s["seed"]) for s in suites] == [(n, c, 2) for n, c in counts.items()]
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "2", "--cases", "3")
    assert code == 0
    assert out.splitlines() == [f"{name:<20} cases=3      failures=0    ok" for name in counts]


def test_every_suite_runs_its_table_count_unless_cases_is_given(capsys, monkeypatch):
    import polyharm.theorems as theorems

    counts = {name: index + 1 for index, name in enumerate(theorems.SUITE_NAMES)}
    monkeypatch.setattr(theorems, "DEFAULT_CASES", counts)
    for name in theorems.SUITE_NAMES:
        code, out, _ = run_cli(capsys, "verify", "--suite", name, "--seed", "2", "--json")
        assert code == 0 and json.loads(out)["cases_run"] == counts[name]
        code, out, _ = run_cli(capsys, "verify", "--suite", name, "--seed", "2", "--cases", "2", "--json")
        assert code == 0 and json.loads(out)["cases_run"] == 2
    code, out, _ = run_cli(capsys, "conjecture", "--seed", "2", "--json")
    assert code == 0 and json.loads(out)["cases_run"] == counts["conjecture_search"]


def test_verify_all_reports_first_failure_and_exits_1(capsys, monkeypatch):
    import polyharm.theorems as theorems
    from polyharm.gen import spawn

    def fails(rng):
        raise theorems._CaseFailure("f=z", "order 1", "2")

    failure = (f"case_seed={spawn(0, 0)} f=z", "order 1", "2")
    monkeypatch.setitem(theorems._SUITES, "prop21", (fails, 500))
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--cases", "2")
    assert code == 1
    assert "prop21               cases=2      failures=2    FAIL\n" f"  first failure: {failure}\n" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--cases", "2", "--json")
    [prop21] = [s for s in json.loads(out)["suites"] if s["failures"]]
    assert code == 1 and prop21["first_failure"] == dict(zip(("input", "expected", "got"), failure))


def test_verify_case_seed_replays_the_suites_first_failure(capsys, monkeypatch):
    import polyharm.theorems as theorems
    from polyharm.gen import spawn

    case_seed = spawn(0, 0)
    code, out, err = run_cli(capsys, "verify", "--suite", "thm1_suff", "--case-seed", str(case_seed))
    assert (code, out, err) == (0, f"suite: thm1_suff\ncase_seed: {case_seed}\nfailures: 0\n", "")

    def fails_on_half_the_seeds(rng):
        if rng.below(2):
            raise theorems._CaseFailure("f=z", "order 1", "2")

    monkeypatch.setitem(theorems._SUITES, "prop21", (fails_on_half_the_seeds, 500))
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop21", "--seed", "3", "--cases", "20")
    assert code == 1
    failure_lines = out.splitlines()[4:]
    failing_seed = failure_lines[0].split("case_seed=")[1].split()[0]
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop21", "--case-seed", failing_seed)
    assert code == 1
    assert out.splitlines() == ["suite: prop21", f"case_seed: {failing_seed}", "failures: 1", *failure_lines]
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop21", "--case-seed", failing_seed, "--json")
    assert code == 1
    assert json.loads(out) == {
        "suite": "prop21",
        "case_seed": int(failing_seed),
        "failures": 1,
        "first_failure": {"input": f"case_seed={failing_seed} f=z", "expected": "order 1", "got": "2"},
    }


@pytest.mark.parametrize(
    "extra", [["--suite", "all"], ["--suite", "thm3", "--cases", "5"], ["--suite", "thm3", "--seed", "1"]]
)
def test_verify_case_seed_usage_errors(capsys, extra):
    code, out, err = run_cli(capsys, "verify", *extra, "--case-seed", "7")
    assert code == 2 and out == ""
    assert err.startswith("usage error: --case-seed replays one case of one suite")
    code, out, err = run_cli(capsys, "verify", "--suite", "thm3", "--case-seed", "-1")
    assert code == 2 and out == "" and "argument --case-seed" in err


def test_verify_case_seed_is_below_2_to_the_64(capsys):
    # SplitMix64 keeps a seed mod 2^64, so 2^64 would replay seed 0's case
    # under another number; every printed case seed is below 2^64.
    for seed in (1 << 64, (1 << 64) + 7):
        code, out, err = run_cli(capsys, "verify", "--suite", "thm1_nec", "--case-seed", str(seed), "--json")
        assert (code, out) == (2, "")
        assert err.endswith("argument --case-seed: must be below 2^64\n")
    top = (1 << 64) - 1
    code, out, err = run_cli(capsys, "verify", "--suite", "thm1_nec", "--case-seed", str(top), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["case_seed"] == top


def test_reich(capsys):
    code, out, _ = run_cli(capsys, "reich", "--alpha", "1", "--c", "-1", "1", "--json")
    assert code == 0 and json.loads(out) == {"holds": True}
    code, out, _ = run_cli(capsys, "reich", "--alpha", "0", "--c", "0", "z")
    assert code == 1 and out.strip() == "holds: false"


def test_reich_alpha_must_be_constant(capsys):
    code, _, err = run_cli(capsys, "reich", "--alpha", "z", "--c", "0", "z")
    assert code == 2 and "constant" in err


def test_reich_negative_values_need_the_equals_form(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "reich", "--alpha=-1/2", "--c=-1/2", "1")
    assert code == 1 and out == "holds: false\n"
    for flag, argv in (("--alpha", ["--alpha", "-1/2", "--c", "0"]), ("--c", ["--alpha", "1", "--c", "-1/2"])):
        code, _, err = run_cli(capsys, "reich", *argv, "1")
        assert code == 2 and f"argument {flag}: expected one argument" in err
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, "reich", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "a negative value needs the form --alpha=X" in text and "a negative value needs the form --c=X" in text


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "z^2*zbar^3 + z", "--at", "1,1")
    assert code == 0 and out.strip() == "5 - 3*i"
    code, out, _ = run_cli(capsys, "eval", "z*zbar", "--at", "3/2,-1/2", "--json")
    assert code == 0 and json.loads(out) == {"value": "5/2"}


def test_eval_negative_x_needs_the_equals_form(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "eval", "z", "--at=-1,2")
    assert code == 0 and out.strip() == "-1 + 2*i"
    code, _, err = run_cli(capsys, "eval", "z", "--at", "-1,2")
    assert code == 2 and "argument --at: expected one argument" in err
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, "eval", "--help")
    assert code == 0 and "a negative X needs the form --at=X,Y" in " ".join(out.split())


def test_eval_bad_point(capsys):
    code, _, err = run_cli(capsys, "eval", "z", "--at", "1;2")
    assert code == 2 and "X,Y" in err


def test_eval_zero_denominator_names_the_coordinate(capsys):
    code, out, err = run_cli(capsys, "eval", "z", "--at", "1/0,1")
    assert code == 2 and not out
    assert "argument --at: not a rational number: '1/0'" in err


def test_eval_empty_coordinates_are_named(capsys):
    code, out, err = run_cli(capsys, "eval", "z", "--at", ",")
    assert code == 2 and not out
    assert "argument --at: not a rational number: ''" in err


def test_fdcheck(capsys):
    code, out, _ = run_cli(capsys, "fdcheck", "z^2*zbar^3", "--points", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["within_tolerance"] is True
    assert payload["abs_error"] >= 0.0
    assert payload["points"] == 3


def test_fdcheck_exp_mode(capsys):
    code, out, _ = run_cli(capsys, "fdcheck", "z*zbar", "--points", "3", "--m", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1 and payload["within_tolerance"] is True


def test_fdcheck_tol_abs_with_m_is_usage_error(capsys):
    # The exp identity check has only a relative tolerance, so --tol-abs
    # with --m would be silently ignored.
    code, out, err = run_cli(capsys, "fdcheck", "z*zbar", "--m", "1", "--tol-abs", "5")
    assert code == 2 and out == ""
    assert err.startswith("usage error: --tol-abs") and "--m" in err
    code, out, _ = run_cli(capsys, "fdcheck", "z*zbar", "--m", "1", "--tol-rel", "5")
    assert code == 0 and out.endswith("ok\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("fdcheck", "10^400*z"),
        ("fdcheck", "1000*z", "--m", "3"),
        # A value or error past a double's range reads nan or inf, not FAIL.
        ("fdcheck", "z^400", "--h", "10"),
        ("fdcheck", "z^400", "--h", "10", "--json"),
        ("fdcheck", "z^3*zbar^3", "--h", "1e60"),
        ("fdcheck", "z^3*zbar^3", "--h", "1e60", "--m", "1"),
    ],
)
def test_fdcheck_beyond_float_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.endswith(" overflows a double\n")
    assert err.count("\n") == 1


def test_parse_error_exit_code_and_position(capsys):
    code, out, err = run_cli(capsys, "order", "2z")
    assert code == 2
    assert out == ""
    assert "offset 1" in err


@pytest.mark.parametrize("expr, offset", [("(1+z+zbar)^400", 10), ("((1+z+zbar)^20)^20", 15)])
def test_oversized_input_is_parse_error_with_position(capsys, expr, offset):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "order", expr)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: '^' could give up to 160801 terms")
    assert f"at offset {offset}" in err


@pytest.mark.parametrize(
    "argv, out, offset",
    [
        (["order", "+".join(["z"] * 1000)], "1\n", None),
        (["order", "*".join(["z"] * 1200)], "1\n", None),
        (["order", "conj(" * 300 + "z" + ")" * 300], "", 500),
        (["order", "(" * 400 + "z" + ")" * 400], "", 100),
        (["order", "z^²"], "", 2),
        (["laplacian", "--times", "1000000000", "z*zbar"], "0\n", None),
    ],
    ids=["sum_of_1000", "product_of_1200", "conj_nested_300", "paren_nested_400", "superscript_exponent",
         "laplacian_past_zero"],
)
def test_long_deep_and_odd_inputs_finish_fast(capsys, argv, out, offset):
    start = time.perf_counter()
    code, got, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == out
    if offset is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and err.startswith("parse error: ") and f"at offset {offset}" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "laplacian", "--times", "0", "z")
    assert code == 2 and err != ""


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2 and err != ""


def test_json_single_object_on_violation_exit(capsys):
    code, out, _ = run_cli(capsys, "witness", "--theorem", "1b", "--l", "1", "z^2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"] == "zbar^2 + z^2"
    assert payload["composition_order"] == 3


def test_fdcheck_points_is_at_most_100000(capsys):
    # Time and memory grow with the count, so an unbounded one could run for hours.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fdcheck", "z*zbar", "--points", "100001")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "argument --points: must be at most 100000" in err
    code, out, err = run_cli(capsys, "fdcheck", "z*zbar", "--points", "0")
    assert code == 2 and out == "" and "argument --points: must be a positive integer" in err
    # The limit itself is accepted; it is checked on the type, not run.
    assert _positive_int_at_most(MAX_FD_POINTS)("100000") == 100_000


def test_no_value_error_names_an_internal_function(capsys):
    # argparse words a value error as "invalid <type name> value" unless
    # the type raises ArgumentTypeError; a user must not see private names.
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    typed = [
        (command, action)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type is not None
    ]
    assert len(typed) == 17
    for command, action in typed:
        flag = action.option_strings[-1]
        code, out, err = run_cli(capsys, command, flag, "abc")
        assert code == 2 and out == "", (command, flag)
        assert f"argument {flag}: " in err and "'abc'" in err, (command, err)
        assert f"invalid {action.type.__name__} value" not in err or action.type is int, (command, err)


def test_fdcheck_flags_validated_by_argparse(capsys):
    for flags in (["--h", "0"], ["--h", "-1e-4"], ["--m", "5"], ["--m", "0"], ["--m", "-4"]):
        code, out, err = run_cli(capsys, "fdcheck", "z*zbar", *flags)
        assert code == 2 and out == ""
        assert f"argument {flags[0]}" in err


@pytest.mark.parametrize("h", ["1e-200", "inf", "1e300"])
@pytest.mark.parametrize("mode", [[], ["--m", "1"]])
def test_fdcheck_step_whose_square_leaves_double_range_is_usage_error(capsys, h, mode):
    code, out, err = run_cli(capsys, "fdcheck", "z*zbar", "--h", h, *mode)
    assert code == 2 and out == ""
    assert "argument --h: must have h*h a positive finite double" in err


@pytest.mark.parametrize(
    "flags", [["--tol-rel", "-1"], ["--tol-abs", "nan"], ["--tol-abs", "inf"], ["--tol-rel", "nan"]]
)
def test_fdcheck_tolerances_must_be_finite_and_nonnegative(capsys, flags):
    code, out, err = run_cli(capsys, "fdcheck", "z*zbar", *flags)
    assert code == 2 and out == ""
    assert f"argument {flags[0]}: must be a finite nonnegative number" in err
    code, out, _ = run_cli(capsys, "fdcheck", "z*zbar", flags[0], "0")
    assert code == 0 and out.endswith("ok\n")


def test_internal_value_error_is_not_reported_as_usage_error(capsys, monkeypatch):
    import polyharm.cli as cli

    def broken(args):
        raise ValueError("fault inside the library")

    monkeypatch.setattr(cli, "_cmd_order", broken)
    with pytest.raises(ValueError, match="fault inside the library"):
        main(["order", "z"])
    assert "usage error" not in capsys.readouterr().err


def test_reich_non_analytic_g_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "reich", "--alpha", "1", "--c", "0", "zbar")
    assert code == 2 and out == ""
    assert err == "usage error: G has a zbar term\n"


# main reuses one parser for every call in a process; nothing of one call
# may carry over into the next.


def test_reused_parser_restores_defaults(capsys):
    code, out, _ = run_cli(capsys, "laplacian", "--times", "3", "z^3*zbar^3")
    assert code == 0 and out == "2304\n"
    code, out, _ = run_cli(capsys, "laplacian", "z^3*zbar^3")
    assert code == 0 and out == "36*z^2*zbar^2\n"


def test_reused_parser_seed_falls_back_to_env(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop21", "--cases", "3", "--seed", "5", "--json")
    assert code == 0 and json.loads(out)["seed"] == 5
    monkeypatch.setenv("POLYHARM_SEED", "41")
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop21", "--cases", "3", "--json")
    assert code == 0 and json.loads(out)["seed"] == 41


def test_reused_parser_after_argparse_error(capsys):
    code, out, err = run_cli(capsys, "laplacian", "--times", "0", "--json", "z")
    assert code == 2 and out == "" and "argument --times" in err
    code, out, err = run_cli(capsys, "laplacian", "z*zbar")
    assert (code, out, err) == (0, "4\n", "")


def test_help_output_is_repeatable(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first = run_cli(capsys, "--help")
    second = run_cli(capsys, "--help")
    assert first[0] == 0 and first[1].startswith("usage: polyharm")
    assert first == second


def test_integers_past_int_str_digit_limit_exit_2(capsys):
    limit = str(sys.get_int_max_str_digits())
    code, out, err = run_cli(capsys, "order", "7" * 5000 + "*z")
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "at offset 0" in err and limit in err
    for argv in (("compose", "2^20000*z", "z"), ("eval", "2^20000*z", "--at", "1,0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and limit in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["reich", "--alpha", "1", "--c", "1e100000000", "1"], "--c", "1e100000000"),
        (["eval", "z", "--at", "1e-100000000,0"], "--at", "1e-100000000"),
    ],
    ids=["reich_c", "eval_at"],
)
def test_oversized_decimal_exponents_fail_fast(capsys, argv, flag, text):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"argument {flag}: exponent of {text!r} is over the limit of {sys.get_int_max_str_digits()}" in err


def test_small_decimal_exponents_and_fractions_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "eval", "z", "--at", "1e3,-1/2")
    assert code == 0 and out.strip() == "1000 - 1/2*i"
    code, out, _ = run_cli(capsys, "eval", "z", "--at", "25e-2,1.5E+1")
    assert code == 0 and out.strip() == "1/4 + 15*i"
    code, out, _ = run_cli(capsys, "reich", "--alpha", "1", "--c=-1e0", "1")
    assert code == 0 and out.strip() == "holds: true"


# Full passes run through `python -m polyharm`, as a user runs them.

SUITE_ORDER = [
    "thm1_suff", "thm1_nec", "thm2_suff", "thm2_nec", "thm3", "prop21", "prop22", "conjecture_search",
]


def _polyharm(*argv):
    env = {k: v for k, v in os.environ.items() if k != "POLYHARM_SEED"}
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "polyharm", *argv], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("module", ["polyharm.cli", "polyharm.theorems"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # Each CLI call pays for what its import loads; the result records are
    # NamedTuples, which need neither module.
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = dict(os.environ)
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_entry_point_runs_every_suite_and_the_hunt():
    run = _polyharm("verify", "--suite", "all", "--cases", "1")
    assert (run.returncode, run.stderr) == (0, "")
    assert [line.split() for line in run.stdout.splitlines()] == [
        [name, "cases=1", "failures=0", "ok"] for name in SUITE_ORDER
    ]
    run = _polyharm("verify", "--suite", "all", "--cases", "1", "--json")
    assert (run.returncode, run.stderr) == (0, "")
    suites = json.loads(run.stdout)["suites"]
    assert [(s["suite"], s["cases_run"], s["failures"]) for s in suites] == [(n, 1, 0) for n in SUITE_ORDER]

    run = _polyharm("conjecture", "--l", "3", "4", "--cases", "2")
    assert (run.returncode, run.stderr) == (0, "")
    assert "cases_run: 2\n" in run.stdout and "l_values: 3, 4\n" in run.stdout
    run = _polyharm("conjecture", "--l", "3", "4", "--cases", "2", "--json")
    assert (run.returncode, run.stderr) == (0, "")
    payload = json.loads(run.stdout)
    assert (payload["cases_run"], payload["candidates"], payload["l_values"]) == (2, 0, [3, 4])

    run = _polyharm("conjecture", "--l", "0", "3")
    assert run.returncode == 2 and run.stdout == "" and "must be a positive integer" in run.stderr
