"""The three workloads of the polyharm benchmark.

Every workload is a closed loop with one client: the next case is issued
only after the previous one returns, in one process with no threads.  Its
inputs come from the benchmark seed alone, through the standard library's
``random.Random``, so the program receives generated inputs and nothing
about the benchmark.  Cases come in fixed blocks whose mix does not depend
on timing; a run stops only at a block boundary.

Each case is one call into polyharm's public API, looked up at call time so
that the tracer's wrappers apply.  Its outcome is checked after the timed
region against expectations that polyharm does not produce on its own:
the reports' own failure counts for the suites, and for the CLI the outputs
the README states, closed forms, and exact arithmetic of the benchmark's own
(oracle.py).
"""

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction

import oracle

WORKLOADS = ("suites", "hunt", "cli")

# Per-case mix of scripts/run_suites.py's defaults (200, 500 or 2000 cases per
# suite), scaled down to one block of 40 cases.
SUITE_MIX = {
    "thm1_suff": 2,
    "thm1_nec": 2,
    "thm2_suff": 2,
    "thm2_nec": 2,
    "thm3": 2,
    "prop21": 5,
    "prop22": 5,
    "conjecture_search": 20,
}

HUNT_BLOCK = 100
HUNT_L_VALUES = (3, 4)


def _interleave(mix: dict) -> list:
    """Spread each suite evenly over one block, in a fixed order."""
    slots = [((k + 0.5) / count, name) for name, count in mix.items() for k in range(count)]
    return [name for _, name in sorted(slots)]


class Case:
    """One timed call.  kind names the suite or the CLI call class."""

    __slots__ = ("kind", "call", "check", "label")

    def __init__(self, kind, call, check, label):
        self.kind = kind
        self.call = call
        self.check = check
        self.label = label


def _report_outcome(report):
    return (report.suite_name, report.cases_run, report.failures, report.first_failure)


def _check_report(report) -> str | None:
    if report.cases_run != 1:
        return f"cases_run={report.cases_run}, expected 1"
    if report.failures:
        return f"{report.failures} failure(s): {report.first_failure}"
    return None


class Workload:
    """Seeded source of case blocks; see the subclasses for the mixes."""

    name = ""
    module = "polyharm.theorems"  # imported at set-up; its package imports the rest
    # Blocks run before timing starts, and blocks replayed per second of
    # --seconds in the traced run (each block runs untraced, then traced).
    warmup_blocks = 1
    trace_blocks_per_s = 1.0
    # Layers that must record calls in a traced run of this workload, and
    # the layers predicted to be bypassed (reported, not enforced).
    expected_layers: tuple = ()
    predicted_bypass: tuple = ()

    def __init__(self, seed: int):
        self.rng = random.Random(f"polyharm-bench:{self.name}:{seed}")
        self.api = importlib.import_module(self.module)
        self.blocks_made = 0

    def next_block(self) -> list:
        self.blocks_made += 1
        return self._block()

    def _block(self) -> list:
        raise NotImplementedError

    # The part of a call's result that an untraced and a traced run must agree on.
    outcome = staticmethod(_report_outcome)


class Suites(Workload):
    """run_suite(name, case_seed, 1) over the run_suites.py case mix."""

    name = "suites"
    warmup_blocks = 2
    trace_blocks_per_s = 2.5
    expected_layers = (
        "bipoly.mul", "bipoly.compose", "bipoly.add", "bipoly.scale", "bipoly.pow",
        "bipoly.print", "wirtinger.order", "wirtinger.derivatives", "classify", "gen",
        "theorems.witness", "theorems.identities", "theorems.case",
    )
    predicted_bypass = ("parser.parse_ast", "parser.lower", "cli.main", "numeric.eval_float", "numeric.fd")

    def __init__(self, seed):
        super().__init__(seed)
        self.order = _interleave(SUITE_MIX)

    def _block(self):
        cases = []
        for suite in self.order:
            case_seed = self.rng.getrandbits(64)
            call = lambda suite=suite, s=case_seed: self.api.run_suite(suite, s, 1)
            cases.append(Case(suite, call, _check_report, f"run_suite({suite!r}, {case_seed}, 1)"))
        return cases


class Hunt(Workload):
    """run_conjecture_search(case_seed, 1, (3, 4)): the deep counterexample hunt."""

    name = "hunt"
    warmup_blocks = 4
    trace_blocks_per_s = 3.0
    expected_layers = (
        "bipoly.mul", "bipoly.add", "bipoly.pow", "wirtinger.order", "gen", "theorems.case",
    )
    predicted_bypass = (
        "bipoly.compose", "parser.parse_ast", "parser.lower", "cli.main",
        "numeric.eval_float", "numeric.fd", "theorems.witness",
    )

    def _block(self):
        cases = []
        for _ in range(HUNT_BLOCK):
            case_seed = self.rng.getrandbits(64)
            call = lambda s=case_seed: self.api.run_conjecture_search(s, 1, HUNT_L_VALUES)
            cases.append(
                Case("conjecture_search", call, _check_report,
                     f"run_conjecture_search({case_seed}, 1, {HUNT_L_VALUES})")
            )
        return cases


# --- cli ---------------------------------------------------------------------


def _exact(text):
    def check(out):
        return None if out.rstrip("\n") == text else f"stdout {out!r}, expected {text!r}"
    return check


def _first_lines(lines):
    def check(out):
        got = out.splitlines()[: len(lines)]
        return None if got == lines else f"stdout starts {got!r}, expected {lines!r}"
    return check


def _fields(expected: dict):
    """Human output of "key: value" lines containing the expected pairs."""
    def check(out):
        got = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        wrong = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        return None if not wrong else f"fields {wrong!r}, expected {expected!r}"
    return check


def _json_fields(expected: dict):
    def check(out):
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out!r}"
        wrong = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        return None if not wrong else f"fields {wrong!r}, expected {expected!r}"
    return check


def _ends_with(suffix):
    def check(out):
        return None if out.rstrip("\n").endswith(suffix) else f"stdout {out!r} lacks {suffix!r}"
    return check


def _mapping(expected):
    """Printed mapping equals expected(w) at the oracle's points."""
    def check(out):
        return oracle.same_mapping(out, expected)
    return check


def _almansi(components):
    """order: p, then G_k lines equal to the expected harmonic components."""
    def check(out):
        lines = out.splitlines()
        if not lines or lines[0] != f"order: {len(components)}":
            return f"stdout {out!r}, expected order: {len(components)}"
        for k, want in enumerate(components):
            prefix = f"G_{k + 1} = "
            if len(lines) <= k + 1 or not lines[k + 1].startswith(prefix):
                return f"missing {prefix!r} in {out!r}"
            err = oracle.same_mapping(lines[k + 1][len(prefix):], want)
            if err:
                return f"G_{k + 1}: {err}"
        return None
    return check


# Every CLI example in the README, with the README's stated outputs where it
# gives them and mathematical facts otherwise.  The suite and hunt examples
# run one case each, so that every call here stays small.
SMALL_CALLS = (
    (["order", "z*zbar"], 0, _exact("2")),
    (["order", "--json", "z*zbar"], 0, _json_fields({"order": 2})),
    (["laplacian", "--times", "2", "z^2*zbar^3"], 0, _exact("192*zbar")),
    (["almansi", "z^2*zbar^3 + z"], 0, _almansi([lambda w: w, lambda w: 0, lambda w: w.conjugate()])),
    (["compose", "z^2", "z + zbar"], 0, _mapping(lambda w: (w + w.conjugate()) ** 2)),
    (
        ["classify", "3*z + 2*zbar + 1"],
        0,
        _fields({"order": "1", "is_analytic": "false", "is_antianalytic": "false",
                 "is_harmonic": "true", "is_affine": "true", "harmonic_degree": "1"}),
    ),
    (["eval", "z^2*zbar^3 + z", "--at", "1,1"], 0, _exact("5 - 3*i")),
    (
        ["witness", "--theorem", "1b", "--l", "1", "z^2"],
        1,
        _first_lines(["verdict: Violation", "witness: zbar^2 + z^2", "composition_order: 3"]),
    ),
    (
        ["verify", "--suite", "thm2_suff", "--seed", "7", "--cases", "1"],
        0,
        _fields({"suite": "thm2_suff", "cases_run": "1", "failures": "0", "seed": "7"}),
    ),
    (
        ["verify", "--suite", "prop22", "--seed", "1", "--cases", "1", "--json"],
        0,
        _json_fields({"suite": "prop22", "cases_run": 1, "failures": 0, "seed": 1}),
    ),
    (["conjecture", "--seed", "3", "--cases", "1"], 0, _fields({"cases_run": "1", "candidates": "0"})),
    # (G')^2 = 0 and 1^2*1 + 2*(-1)*1 + 1^2*1 = 0 for the constant G = 1.
    (["reich", "--alpha", "1", "--c", "-1", "1"], 0, _exact("holds: true")),
    (["fdcheck", "z^2*zbar^3", "--points", "5", "--h", "1e-4"], 0, _ends_with(": ok")),
    (["fdcheck", "z*zbar", "--m", "1"], 0, _ends_with(": ok")),
)


def _gaussian_text(re: int, im: int = 0) -> str:
    """Grammar text of the Gaussian integer re + im*i."""
    if not im:
        return f"({re})" if re < 0 else str(re)
    return f"({re} {'+' if im > 0 else '-'} {abs(im)}*i)"


def _rational_text(q: Fraction) -> str:
    """Grammar text of |q|."""
    return str(abs(q.numerator)) if q.denominator == 1 else f"{abs(q.numerator)}/{q.denominator}"


def _monomial_text(i: int, j: int) -> str:
    return "*".join(var if e == 1 else f"{var}^{e}" for var, e in (("z", i), ("zbar", j)) if e)


def _mapping_text(terms: dict) -> str:
    """Grammar text of sum c * z^i * zbar^j, with c = (re, im) and re != 0."""
    pieces = []
    for (i, j), (re, im) in sorted(terms.items()):
        if im:
            sign = "+"
            coeff = f"({'-' if re < 0 else ''}{_rational_text(re)} {'+' if im > 0 else '-'} {_rational_text(im)}*i)"
        else:
            sign, coeff = ("-" if re < 0 else "+"), _rational_text(re)
        mono = _monomial_text(i, j)
        pieces.append((sign, f"{coeff}*{mono}" if mono else coeff))
    first_sign, first = pieces[0]
    # A command-line argument that starts with "-" would read as an option.
    out = ("0 - " if first_sign == "-" else "") + first
    return out + "".join(f" {sign} {text}" for sign, text in pieces[1:])


class Cli(Workload):
    """In-process polyharm.cli.main(argv) calls: README examples plus one seeded large call per round."""

    name = "cli"
    module = "polyharm.cli"
    warmup_blocks = 2
    trace_blocks_per_s = 2.0
    expected_layers = (
        "cli.main", "parser.parse_ast", "parser.lower", "bipoly.mul", "bipoly.compose",
        "bipoly.add", "bipoly.pow", "bipoly.print", "bipoly.eval_exact", "wirtinger.order",
        "wirtinger.derivatives", "wirtinger.almansi", "classify", "theorems.witness",
        "theorems.identities", "theorems.case", "numeric.eval_float", "numeric.fd",
    )
    predicted_bypass = ()

    def __init__(self, seed):
        super().__init__(seed)
        self.small = [
            Case("small", self._caller(argv), self._checker(code, check), " ".join(argv))
            for argv, code, check in SMALL_CALLS
        ]
        self.families = (self._large_order, self._large_laplacian, self._large_compose)

    def _caller(self, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.api.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        return call

    @staticmethod
    def _checker(code, check):
        def run_check(result):
            got_code, out, err = result
            if got_code != code:
                return f"exit code {got_code}, expected {code}; stderr {err!r}"
            return check(out)
        return run_check

    @staticmethod
    def outcome(result):
        return result[:2]

    def _block(self):
        argv, check = self.families[self.blocks_made % len(self.families)]()
        large = Case("large", self._caller(argv), self._checker(0, check), " ".join(argv))
        return self.small + [large]

    def _large_order(self):
        # order((a + b*z + c*zbar)^n) = floor(n/2) + 1 when a, b, c != 0: the
        # top mixed term (z*zbar)^floor(n/2) has coefficient multinomial * a^(n mod 2) * (b*c)^floor(n/2).
        rng = self.rng
        n = rng.randint(11, 13)
        a, b, c = (rng.randint(1, 4) * rng.choice((1, -1)) for _ in range(3))
        c_text = _gaussian_text(c, rng.randint(-2, 2))
        text = f"({_gaussian_text(a)} + {_gaussian_text(b)}*z + {c_text}*zbar)^{n}"
        return ["order", text], _exact(str(n // 2 + 1))

    def _large_laplacian(self):
        # For analytic H, laplacian^k(H * conj(H)) = 4^k * H^(k) * conj(H^(k)); here H = h^m.
        rng = self.rng
        coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        coeffs.append((rng.randint(1, 3), rng.randint(-2, 2)))
        m = rng.randint(4, 5)
        k = rng.randint(2, 3)
        h_text = " + ".join(_gaussian_text(re, im) + ("", "*z", "*z^2")[d] for d, (re, im) in enumerate(coeffs))
        h = [oracle.GQ(re, im) for re, im in coeffs]
        derivative = oracle.poly_derivative(oracle.poly_pow(h, m), k)

        def expected(w):
            value = oracle.poly_eval(derivative, w)
            return 4**k * value * value.conjugate()

        return ["laplacian", "--times", str(k), f"abs2({h_text})^{m}"], _mapping(expected)

    def _random_order3(self) -> str:
        rng = self.rng
        keys = {(2, rng.randint(2, 3))} | {
            (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(3, 4))
        }
        keys.discard((3, 3))  # keep the order at exactly 3
        terms = {}
        for key in keys:
            re = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
            im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.4 else Fraction(0)
            terms[key] = (re, im)
        return _mapping_text(terms)

    def _large_compose(self):
        outer, inner = self._random_order3(), self._random_order3()
        expected = lambda w: oracle.evaluate(outer, oracle.evaluate(inner, w))
        return ["compose", outer, inner], _mapping(expected)


_CLASSES = {cls.name: cls for cls in (Suites, Hunt, Cli)}


def build(name: str, seed: int) -> Workload:
    """Import the program and prepare the seeded inputs of one workload."""
    return _CLASSES[name](seed)
