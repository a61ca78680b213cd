"""Spans around polyharm's public functions, installed from outside the program.

Each listed function is wrapped where it is defined and rebound in every
polyharm module that imported it by name; methods are wrapped on their
class.  A span records name, start, end, parent span and case id.  Spans
are kept in memory and written out when the run ends.  Self time is a
span's duration minus the time its child spans cover, including the
tracer's own bookkeeping for those children.

No span wraps GaussianRational: a suite pass makes millions of scalar
operations, so the scalar layer is reported by counts only
(``bipoly.mul.term_products`` and ``bipoly.coeff_bits_max``).
"""

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Span name -> (module, functions or Class.method names).
LAYERS = {
    "bipoly.mul": ("polyharm.bipoly", ("mul",)),
    "bipoly.compose": ("polyharm.bipoly", ("compose",)),
    "bipoly.add": ("polyharm.bipoly", ("BiPoly.__add__",)),
    "bipoly.scale": ("polyharm.bipoly", ("BiPoly.__mul__",)),
    "bipoly.pow": ("polyharm.bipoly", ("BiPoly.__pow__",)),
    "bipoly.print": ("polyharm.bipoly", ("canonical_print",)),
    "bipoly.eval_exact": ("polyharm.bipoly", ("eval_exact",)),
    "wirtinger.order": ("polyharm.wirtinger", ("polyharmonic_order",)),
    "wirtinger.derivatives": ("polyharm.wirtinger", ("d_dz", "d_dzbar", "laplacian")),
    "wirtinger.almansi": ("polyharm.wirtinger", ("almansi_decompose", "almansi_recompose")),
    "classify": ("polyharm.classify", ("classify", "is_strictly_q_harmonic", "harmonic_parts")),
    "gen": ("polyharm.gen", ("gen_bipoly", "gen_analytic", "gen_harmonic", "gen_strict_q_harmonic")),
    "theorems.witness": ("polyharm.theorems", ("find_witness_post", "find_witness_pre")),
    "theorems.identities": ("polyharm.theorems", ("a_m", "separable_laplacian", "reich_condition_check")),
    "theorems.case": ("polyharm.theorems", ("run_suite", "run_conjecture_search")),
    "numeric.eval_float": ("polyharm.numeric", ("eval_float",)),
    "numeric.fd": ("polyharm.numeric", ("fd_laplacian", "exp_identity_check")),
    "parser.parse_ast": ("polyharm.parser", ("parse_ast",)),
    "parser.lower": ("polyharm.parser", ("lower",)),
    "cli.main": ("polyharm.cli", ("main",)),
}

# Counters kept at span boundaries, beyond calls and self time, with units.
COUNTERS = {
    "bipoly.mul.term_products": "count",
    "bipoly.mul.terms_out": "count",
    "bipoly.coeff_bits_max": "bits",
    "bipoly.compose.mul_calls": "count",
    "bipoly.compose.terms_out": "count",
    "theorems.witness.candidates": "count",
    "parser.input_bytes": "bytes",
}


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Spans, call counts, self times and counters of one traced replay."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, case id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.case_id = None
        self.missing = []  # "module.attr" that no longer exists
        self._stack = []  # [span index, seconds covered by children, name]
        self._open = Counter()
        self._patches = []

    # --- span bookkeeping -------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        start = perf_counter()
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        frame = [index, 0.0, name]
        self._stack.append(frame)
        self._open[name] += 1
        returned = False
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            if returned:
                self._count(name, args, result, parent)
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[1]
            self.spans[index] = (name, start, end, -1 if parent is None else parent[0], self.case_id)
            if parent is not None:
                parent[1] += perf_counter() - start
        return result

    def _count(self, name, args, result, parent):
        counts = self.counts
        if name == "bipoly.mul":
            a, b = args[:2]
            counts["bipoly.mul.term_products"] += len(a.terms) * len(b.terms)
            counts["bipoly.mul.terms_out"] += len(result.terms)
            bits = max((max(_bits(c.re), _bits(c.im)) for c in result.terms.values()), default=0)
            if bits > counts["bipoly.coeff_bits_max"]:
                counts["bipoly.coeff_bits_max"] = bits
            if parent is not None and parent[2] == "bipoly.compose":
                counts["bipoly.compose.mul_calls"] += 1
        elif name == "bipoly.compose":
            counts["bipoly.compose.terms_out"] += len(result.terms)
            if self._open["theorems.witness"]:
                counts["theorems.witness.candidates"] += 1
        elif name == "theorems.witness":
            if getattr(result, "verdict", None) == "Violation":
                counts["theorems.witness.hits"] += 1
        elif name == "parser.parse_ast":
            counts["parser.input_bytes"] += len(str(args[0]).encode("utf-8"))

    # --- installing and removing wrappers ---------------------------------

    def wrap(self, name, fn):
        tracer = self

        if name == "bipoly.scale":
            # BiPoly * BiPoly goes on to mul, which has its own span; only
            # products with a scalar are scaling.
            poly_type = importlib.import_module("polyharm.bipoly").BiPoly

            @functools.wraps(fn)
            def traced(self_, other):
                if isinstance(other, poly_type):
                    return fn(self_, other)
                return tracer._run(name, fn, (self_, other), {})

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._run(name, fn, args, kwargs)

        return traced

    def install(self):
        """Wrap every function in LAYERS; polyharm must be imported already."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "polyharm" or n.startswith("polyharm.")]
        for name, (module_name, attrs) in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = None if owner is None else vars(owner).get(member)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self.wrap(name, original)
                # Rebind by identity: catches `from .x import f` copies and
                # aliases such as BiPoly.__radd__ = __add__.
                targets = [owner] if owner_name else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values as {metric name: (value, unit)}."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for key, unit in COUNTERS.items():
            out[key] = (self.counts[key], unit)
        candidates = self.counts["theorems.witness.candidates"]
        hits = self.counts["theorems.witness.hits"]
        out["theorems.witness.hit_ratio"] = (hits / candidates if candidates else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """Write the spans as tab-separated values, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tcase\n")
            for index, (name, start, end, parent, case) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{case}\n")
