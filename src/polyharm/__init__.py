"""Exact symbolic toolkit for polyharmonic polynomial mappings of one complex variable."""

from .bipoly import (
    BiPoly,
    GaussianRational,
    canonical_print,
    compose,
    eval_exact,
    mul,
    unit_circle_point,
)
from .classify import ClassReport, classify, harmonic_parts, is_strictly_q_harmonic
from .errors import (
    DivisionByZero,
    InternalInconsistency,
    NonHarmonicComponent,
    NotAnalytic,
    ParseError,
    PolyharmError,
    UnknownSuite,
)
from .gen import gen_analytic, gen_bipoly, gen_harmonic, gen_strict_q_harmonic, spawn
from .numeric import FdReport, eval_float, exp_identity_check, fd_laplacian
from .parser import parse, parse_ast
from .theorems import (
    SuiteReport,
    WitnessResult,
    a_m,
    allowed_form_post,
    allowed_form_pre,
    find_witness_post,
    find_witness_pre,
    reich_condition_check,
    run_conjecture_search,
    run_suite,
    separable_laplacian,
)
from .wirtinger import (
    almansi_decompose,
    almansi_recompose,
    d_dz,
    d_dzbar,
    laplacian,
    polyharmonic_order,
)

__version__ = "0.1.0"
