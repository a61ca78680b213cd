"""Command-line front end with deterministic text/JSON output.

Exit codes: 0 for success / compliant form / clean suite, 1 when a
violating witness, suite failure, or counterexample candidate was found,
2 for usage or parse errors (reported on stderr with the byte offset).

Composition argument order: ``compose OUTER INNER`` applies INNER first,
so it computes OUTER after INNER.
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import numeric, theorems
from .bipoly import GaussianRational, canonical_print, compose, eval_exact, format_scalar
from .classify import classify
from .errors import FloatOverflow, IntegerTooLong, NotAnalytic, ParseError
from .parser import GRAMMAR, parse
from .wirtinger import almansi_decompose, d_dz, d_dzbar, laplacian, polyharmonic_order

SEED_ENV_VAR = "POLYHARM_SEED"

GRAMMAR_HELP = (
    "expression grammar (whitespace insignificant):\n\n"
    + "".join("  " + line for line in GRAMMAR.splitlines(keepends=True))
    + '\nexamples: "z^2 + conj(z)*abs2(z)", "(1/2 + 3/4*i)*z", "abs2(z+1)"\n'
)


def _checked(convert, *rules):
    """The argparse type that converts text, then checks each (test, message) rule in turn.

    Text that does not convert gets the first rule's message and the text.
    """

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{rules[0][1]}, got {text!r}") from None
        for test, message in rules:
            if not test(value):
                raise argparse.ArgumentTypeError(message)
        return value

    return check


_POSITIVE = (lambda n: n >= 1, "must be a positive integer")
_NONNEGATIVE = (lambda n: n >= 0, "must be a nonnegative integer")
_positive_int = _checked(int, _POSITIVE)
_nonnegative_int = _checked(int, _NONNEGATIVE)
# Every case seed is a 64-bit state (gen.spawn), and SplitMix64 would
# reduce a larger one mod 2^64, replaying another case under its number.
_case_seed = _checked(int, _NONNEGATIVE, (lambda n: n < 1 << 64, "must be below 2^64"))
_step = _checked(
    float,
    (lambda h: h > 0, "must be a positive number"),
    (numeric.step_in_range, "must have h*h a positive finite double: about 1.6e-162 to 1.3e154"),
)
_tolerance = _checked(float, (lambda t: 0 <= t < float("inf"), "must be a finite nonnegative number"))
_exp_multiplier = _checked(int, (lambda m: m != 0 and abs(m) <= 3, "must be a nonzero integer with |m| <= 3"))

# conjecture --l limit: a case whose Newton polygon has every vertex on an
# axis builds up to 2l powers of f, so the worst case grows steeply with l.
MAX_HUNT_L = 40

# fdcheck --points limit: time and memory grow linearly with the count.
MAX_FD_POINTS = 100_000


def _positive_int_at_most(limit: int):
    """The argparse type of a positive int no larger than limit."""
    return _checked(int, _POSITIVE, (lambda n: n <= limit, f"must be at most {limit}"))


# Witness theorem -> (post-composition, fixed q, fixed l); None leaves it to --q or --l.
_THEOREMS = {
    "1a": (True, 0, None),
    "1b": (True, 1, None),
    "1c": (True, None, None),
    "2a": (False, 1, None),
    "2b": (False, None, None),
    "3b": (False, None, 1),
    "3c": (False, None, 2),
}


# The decimal exponent of a Fraction literal such as "1.5e-3".
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*\Z", re.IGNORECASE)


def _fraction(text: str) -> Fraction:
    # Fraction expands 1e10000000 into a 33-million-bit integer, so an
    # exponent past the int/str digit limit is refused before it is built.
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    try:
        if exponent and 0 < limit < abs(int(exponent[1])):
            raise argparse.ArgumentTypeError(f"exponent of {text!r} is over the limit of {limit}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})")


def _point(text: str) -> GaussianRational:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects X,Y with rational X and Y, got {text!r}")
    return GaussianRational(*(_fraction(part.strip()) for part in parts))


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the map from each command to its own parser."""
    parser = argparse.ArgumentParser(
        prog="polyharm",
        description="Exact toolkit for polyharmonic polynomial mappings of one complex variable.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a single JSON object")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", parents=[common], help="polyharmonic order of a mapping")
    p.add_argument("expr")

    p = sub.add_parser("dz", parents=[common], help="formal d/dz")
    p.add_argument("expr")

    p = sub.add_parser("dzbar", parents=[common], help="formal d/dzbar")
    p.add_argument("expr")

    p = sub.add_parser("laplacian", parents=[common], help="iterated Laplacian 4 d/dz d/dzbar")
    p.add_argument("--times", type=_positive_int, default=1)
    p.add_argument("expr")

    p = sub.add_parser("almansi", parents=[common], help="harmonic components G_1..G_p")
    p.add_argument("expr")

    p = sub.add_parser(
        "compose",
        parents=[common],
        help="compose OUTER INNER computes OUTER after INNER",
    )
    p.add_argument("outer")
    p.add_argument("inner")

    p = sub.add_parser("classify", parents=[common], help="structural classification flags")
    p.add_argument("expr")

    p = sub.add_parser(
        "witness",
        parents=[common],
        help="check a mapping's form and construct a violating composition partner",
    )
    p.add_argument("--theorem", required=True, choices=tuple(_THEOREMS))
    p.add_argument("--l", type=_positive_int, default=None)
    p.add_argument("--q", type=_nonnegative_int, default=None)
    p.add_argument("expr")

    p = sub.add_parser("verify", parents=[common], help="run a named sampled suite")
    p.add_argument("--suite", required=True, choices=(*theorems.SUITE_NAMES, "all"), help="all: every suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--cases", type=_positive_int, default=None, help="per suite (default: each suite's own count)"
    )
    p.add_argument(
        "--case-seed",
        type=_case_seed,
        default=None,
        help="replay the one case a failure names (case_seed=N); not with --suite all, --seed or --cases",
    )

    p = sub.add_parser(
        "conjecture",
        parents=[common],
        help="seeded counterexample hunt: an exact check of the pre-composition power bound",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--cases", type=_positive_int, default=None, help="default: the conjecture_search suite's count"
    )
    p.add_argument(
        "--l",
        type=_positive_int_at_most(MAX_HUNT_L),
        nargs="+",
        default=None,
        help=f"orders to draw l from, 1 to {MAX_HUNT_L} (default: {' '.join(map(str, theorems.DEFAULT_L_VALUES))})",
    )

    p = sub.add_parser(
        "reich",
        parents=[common],
        help="test the harmonicity ODE (G')^2 == alpha^2 G^4 + 2c G^3 + conj(alpha)^2 G^2",
    )
    p.add_argument(
        "--alpha",
        required=True,
        help="constant expression, e.g. '1/2 + 3/4*i'; a negative value needs the form --alpha=X",
    )
    p.add_argument(
        "--c", required=True, type=_fraction, help="real rational constant; a negative value needs the form --c=X"
    )
    p.add_argument("expr", help="analytic mapping G")

    p = sub.add_parser("eval", parents=[common], help="exact evaluation at a rational point")
    p.add_argument("expr")
    p.add_argument(
        "--at",
        required=True,
        type=_point,
        metavar="X,Y",
        help="point x + y*i with rational x, y; a negative X needs the form --at=X,Y",
    )

    p = sub.add_parser(
        "fdcheck",
        parents=[common],
        help="finite-difference cross-check of the Laplacian (or, with --m, of the exp identity)",
    )
    p.add_argument("expr")
    p.add_argument("--points", type=_positive_int_at_most(MAX_FD_POINTS), default=5)
    p.add_argument("--h", type=_step, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--m",
        type=_exp_multiplier,
        default=None,
        help="check the exp(m*f) identity instead (exact for biharmonic mappings)",
    )
    p.add_argument("--tol-abs", type=_tolerance, default=None, help="Laplacian check only; not with --m")
    p.add_argument("--tol-rel", type=_tolerance, default=None)

    return parser, sub.choices


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built on the first main() call, not at import, and reused by every
    # later call: building them costs far more than a small command.  A
    # known command is parsed by its own parser alone, since the top-level
    # pass would only hand it the rest of argv; the top-level parser
    # handles help and every other argv, and reports arguments a command
    # leaves over.  They bind no handler, which they would keep from their
    # first build; main looks _cmd_<command> up when it is called.
    return _build_parsers()


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


class _UsageError(Exception):
    pass


def _emit(args, payload: dict, human: str | None = None) -> None:
    """Print the payload as JSON, or as the human text, which defaults to _key_value_text(payload)."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_key_value_text(payload) if human is None else human)


def _bool_text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _key_value_text(payload: dict) -> str:
    """One `key: value` line per field, in payload order.

    A list prints as its items joined by ", "; first_failure prints as
    its `first_failure input/expected/got` lines, or as nothing when null.
    """
    lines = []
    for key, value in payload.items():
        if key == "first_failure":
            lines += [f"{key} {part}: {text}" for part, text in (value or {}).items()]
        elif isinstance(value, list):
            lines.append(f"{key}: {', '.join(map(str, value))}")
        else:
            lines.append(f"{key}: {_bool_text(value)}")
    return "\n".join(lines)


def _cmd_order(args) -> int:
    order = polyharmonic_order(parse(args.expr))
    _emit(args, {"order": order}, str(order))
    return 0


def _result(args, value) -> int:
    """Print a mapping as {"result": text}: the dz, dzbar, laplacian and compose verbs."""
    text = canonical_print(value)
    _emit(args, {"result": text}, text)
    return 0


def _cmd_dz(args) -> int:
    return _result(args, d_dz(parse(args.expr)))


def _cmd_dzbar(args) -> int:
    return _result(args, d_dzbar(parse(args.expr)))


def _cmd_laplacian(args) -> int:
    return _result(args, laplacian(parse(args.expr), args.times))


def _cmd_almansi(args) -> int:
    components = [canonical_print(g) for g in almansi_decompose(parse(args.expr))]
    human_lines = [f"order: {len(components)}"]
    human_lines += [f"G_{k + 1} = {text}" for k, text in enumerate(components)]
    _emit(args, {"order": len(components), "components": components}, "\n".join(human_lines))
    return 0


def _cmd_compose(args) -> int:
    return _result(args, compose(parse(args.outer), parse(args.inner)))


def _cmd_classify(args) -> int:
    _emit(args, classify(parse(args.expr))._asdict())
    return 0


def _theorem_arg(theorem: str, flag: str, fixed: int | None, given: int | None, least: int) -> int:
    """--l or --q for a witness theorem: the value it fixes, or the given one if that is >= least."""
    if fixed is not None:
        if given is not None and given != fixed:
            raise _UsageError(f"--theorem {theorem} fixes {flag} {fixed}")
        return fixed
    if given is None or given < least:
        raise _UsageError(f"--theorem {theorem} requires {flag}" + (f" >= {least}" if least > 1 else ""))
    return given


def _cmd_witness(args) -> int:
    f = parse(args.expr)
    theorem = args.theorem
    post, fixed_q, fixed_l = _THEOREMS[theorem]
    l = _theorem_arg(theorem, "--l", fixed_l, args.l, 1)
    q = _theorem_arg(theorem, "--q", fixed_q, args.q, 2)
    result = (theorems.find_witness_post if post else theorems.find_witness_pre)(f, q, l)
    violation = result.verdict == theorems.VIOLATION
    payload = {
        "verdict": result.verdict,
        "witness": canonical_print(result.witness) if violation else None,
        "composition_order": result.composition_order,
        "required_bound": result.required_bound,
        "family": result.family_tag,
    }
    _emit(args, payload, None if violation else f"verdict: {result.verdict}")
    return 1 if violation else 0


def _failure_payload(first) -> dict | None:
    return None if first is None else {"input": first[0], "expected": first[1], "got": first[2]}


def _suite_payload(report) -> dict:
    return {
        "suite": report.suite_name,
        "cases_run": report.cases_run,
        "failures": report.failures,
        "seed": report.seed,
        "first_failure": _failure_payload(report.first_failure),
    }


def _suite_line(report) -> str:
    status = "FAIL" if report.failures else "ok"
    line = f"{report.suite_name:<20} cases={report.cases_run:<6} failures={report.failures:<4} {status}"
    return line + (f"\n  first failure: {report.first_failure}" if report.failures else "")


def _replay(args) -> int:
    if args.suite == "all" or args.seed is not None or args.cases is not None:
        raise _UsageError("--case-seed replays one case of one suite; drop --suite all, --seed and --cases")
    first = theorems.replay_case(args.suite, args.case_seed)
    failures = 0 if first is None else 1
    payload = {
        "suite": args.suite,
        "case_seed": args.case_seed,
        "failures": failures,
        "first_failure": _failure_payload(first),
    }
    _emit(args, payload)
    return failures


def _cmd_verify(args) -> int:
    if args.case_seed is not None:
        return _replay(args)
    seed = _resolve_seed(args.seed)
    names = list(theorems.DEFAULT_CASES) if args.suite == "all" else [args.suite]
    reports = [theorems.run_suite(name, seed, args.cases or theorems.DEFAULT_CASES[name]) for name in names]
    if args.suite == "all":
        payload = {"suites": [_suite_payload(report) for report in reports]}
        _emit(args, payload, "\n".join(_suite_line(report) for report in reports))
    else:
        _emit(args, _suite_payload(reports[0]))
    return 1 if any(report.failures for report in reports) else 0


def _cmd_conjecture(args) -> int:
    l_values = tuple(args.l or theorems.DEFAULT_L_VALUES)
    cases = args.cases or theorems.DEFAULT_CASES["conjecture_search"]
    report = theorems.run_conjecture_search(_resolve_seed(args.seed), cases, l_values)
    _emit(args, {**_suite_payload(report), "candidates": report.failures, "l_values": list(l_values)})
    return 0 if report.failures == 0 else 1


def _parse_constant(text: str, flag: str) -> GaussianRational:
    value = parse(text)
    if not set(value.numerators) <= {(0, 0)}:
        raise _UsageError(f"{flag} must be a constant expression, got {text!r}")
    return value.coefficient(0, 0)


def _cmd_reich(args) -> int:
    alpha = _parse_constant(args.alpha, "--alpha")
    g = parse(args.expr)
    try:
        holds = theorems.reich_condition_check(g, alpha, args.c)
    except NotAnalytic as exc:
        raise _UsageError(str(exc))
    _emit(args, {"holds": holds})
    return 0 if holds else 1


def _cmd_eval(args) -> int:
    value = eval_exact(parse(args.expr), args.at)
    text = format_scalar(value)
    _emit(args, {"value": text}, text)
    return 0


def _cmd_fdcheck(args) -> int:
    if args.m is not None and args.tol_abs is not None:
        raise _UsageError("--tol-abs sets the Laplacian check's tolerance; the --m check takes --tol-rel only")
    f = parse(args.expr)
    points = numeric.sample_points(_resolve_seed(args.seed), args.points)
    if args.m is not None:
        h = args.h if args.h is not None else numeric.DEFAULT_EXP_H
        rel = args.tol_rel if args.tol_rel is not None else numeric.EXP_REL_TOL
        reports = numeric.exp_identity_check(f, args.m, points, h)
        ok = numeric.exp_within_tolerance(reports, f, args.m, rel)
        mode_payload = {"m": args.m}
    else:
        h = args.h if args.h is not None else numeric.DEFAULT_H
        abs_tol = args.tol_abs if args.tol_abs is not None else numeric.FD_ABS_TOL
        rel = args.tol_rel if args.tol_rel is not None else numeric.FD_REL_TOL
        reports = numeric.fd_laplacian(f, points, h)
        ok = all(numeric.fd_within_tolerance(r, abs_tol, rel) for r in reports)
        mode_payload = {}
    max_error = max(r.abs_error for r in reports)
    payload = {
        "points": args.points,
        "h": h,
        "abs_error": max_error,
        "within_tolerance": ok,
        **mode_payload,
    }
    human = f"max abs error {max_error!r} over {args.points} points at h={h!r}: " + (
        "ok" if ok else "FAIL"
    )
    _emit(args, payload, human)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extras:
                parser.error("unrecognized arguments: " + " ".join(extras))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, IntegerTooLong, FloatOverflow) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
