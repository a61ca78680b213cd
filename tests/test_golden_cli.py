"""Golden transcript of the CLI: stdout, stderr and exit code per call.

The calls are every README CLI example, the full passes included, in text
form and with --json (the verify and conjecture case counts cut to 20),
the same for a few calls whose output has fractional, negative and mixed
coefficients or floating-point errors, for a few parser-heavy inputs, for
two Reich checks with a non-real alpha and for five pre-composition
witnesses, plus one call down each error path: a parse error with its
offset, a usage error raised by a handler, an argparse range error, a
flag value that does not convert to its type, --help, and the argument
errors that the top-level parser and a command's parser each report.
The whole list is replayed twice in one process, forward and then
reversed, so that state carried from one call to the next through the
shared parser would show up as a mismatch.

argparse wraps usage and help text to the terminal width, so every call
runs with COLUMNS=80, also when recording, and without POLYHARM_SEED.
To record the transcript again, from the root of the source tree:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from polyharm.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_cli.json"

README_CALLS = [
    ["order", "z*zbar"],
    ["laplacian", "--times", "2", "z^2*zbar^3"],
    ["almansi", "z^2*zbar^3 + z"],
    ["compose", "z^2", "z + zbar"],
    ["classify", "3*z + 2*zbar + 1"],
    ["eval", "z^2*zbar^3 + z", "--at", "1,1"],
    ["witness", "--theorem", "1b", "--l", "1", "z^2"],
    ["verify", "--suite", "thm2_suff", "--seed", "7", "--cases", "20"],
    ["verify", "--suite", "prop22", "--seed", "1", "--cases", "20"],
    ["conjecture", "--seed", "3", "--cases", "20"],
    ["reich", "--alpha", "1", "--c", "-1", "1"],
    ["fdcheck", "z^2*zbar^3", "--points", "5", "--h", "1e-4"],
    ["fdcheck", "z*zbar", "--m", "1"],
    ["verify", "--suite", "all", "--seed", "0", "--cases", "20"],
    ["conjecture", "--l", "3", "4", "--cases", "20"],
]

# Outputs with fractional, negative, unit-imaginary and mixed coefficients,
# and the fdcheck reports' floats, which the README calls do not exercise.
EDGE_CALLS = [
    ["eval", "z^2*zbar^3 + z", "--at=-1/2,3/4"],
    ["eval", "(1/2 - 3/4*i) + 2*z*zbar - i*z^2", "--at", "1/3,-2"],
    ["compose", "1/2*z^2 - 3/5*zbar - i*z*zbar + i", "z - 1/3 + i*zbar^2"],
    ["laplacian", "(1/2 - 3/4*i)*z^2*zbar^3 - 5/3*z*zbar^3 - 1/3*i*z^2*zbar^2 + 7/2*z*zbar - i*z*zbar^2"],
    ["fdcheck", "z^3*zbar^2 - 1/2*z*zbar^2 + (1/3 + i)*z", "--points", "7", "--seed", "11"],
    ["fdcheck", "z^2*zbar - 1/2*z*zbar^2 + (1/3 + i)*z", "--m", "2", "--points", "7", "--seed", "11"],
    # Parser-heavy input: a leading minus, conj and abs2 around sums,
    # powers of brackets, and a parse error inside nested brackets.
    ["order", "-z^2*zbar + conj(1/2 - i*z)^2*abs2(z + zbar)"],
    ["compose", "-conj(z)^3 + abs2(z)", "(1 - i)*z + 2/3"],
    ["order", "abs2(z + (1 - ))"],
    # Reich's condition with a non-real alpha, which no README call has.
    ["reich", "--alpha", "1 + i", "--c", "0", "1"],
    ["reich", "--alpha", "1/2 + 3/4*i", "--c", "2", "z^2 + 1"],
]

# Pre-composition witnesses: the outer power starts at the least exponent
# below 2l that f's Newton polygon certifies, or at 2l when none is, as
# for z^2 + z*zbar + zbar^2.
PRE_WITNESS_CALLS = [
    ["witness", "--theorem", "2a", "--l", "1", "z^2+zbar^2"],
    ["witness", "--theorem", "2b", "--q", "2", "--l", "3", "z^2+zbar"],
    ["witness", "--theorem", "2a", "--l", "3", "z^2 + z*zbar + zbar^2"],
    # The vertex (1, 1) alone certifies m = 3.
    ["witness", "--theorem", "2a", "--l", "3", "z*zbar + z"],
    # The edge from (4, 0) to (0, 4) certifies m = 2, before the vertex
    # (1, 1) can at m = 3: the least face wins.
    ["witness", "--theorem", "2a", "--l", "3", "z^4 + z*zbar + zbar^4"],
]

ERROR_CALLS = [
    ["order", "z^"],
    ["witness", "--theorem", "1a", "z"],
    ["fdcheck", "z*zbar", "--h", "0"],
    ["fdcheck", "z*zbar", "--points", "abc"],
    ["--help"],
    # The argument errors: no command, an unknown command, arguments the
    # command does not take (reported with the top-level usage), an option
    # before the command, a command's --help and a bad choice inside it.
    [],
    ["ord", "z"],
    ["order", "z", "extra"],
    ["order", "z", "--bogus"],
    ["--json", "order", "z"],
    ["order", "--help"],
    ["witness", "--theorem", "9", "z"],
]

CALLS = (
    [argv for call in README_CALLS + EDGE_CALLS + PRE_WITNESS_CALLS for argv in (call, call + ["--json"])]
    + ERROR_CALLS
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_golden_covers_every_call():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert [entry["argv"] for entry in golden] == CALLS


def test_transcript_forward_then_reversed(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("POLYHARM_SEED", raising=False)
    golden = json.loads(GOLDEN_PATH.read_text())
    for entry in golden + golden[::-1]:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    os.environ["COLUMNS"] = "80"
    os.environ.pop("POLYHARM_SEED", None)
    transcript = [run(argv) for argv in CALLS]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(transcript, indent=1, ensure_ascii=False) + "\n")
