"""Exact arithmetic for degenerate special numbers and polynomials.

Computes degenerate Stirling numbers of both kinds, degenerate
(hyper)harmonic numbers, and degenerate Bernoulli, Euler, Bell, and Fubini
polynomials over exact rationals, and mechanically checks the algebraic
identities relating them over parameter grids with counterexample
reporting.
"""

from .algebra import (
    Poly,
    X,
    binom_poly,
    dfact,
    gfact_falling,
    gfact_rising,
    parse_rational,
    poly_derivative,
    poly_eval,
    poly_int_over_t,
)
from .identities import (
    BindingError,
    CheckResult,
    DEFAULT_GRID,
    Grid,
    SuiteReport,
    UnknownIdentityError,
    list_identities,
    run_identity,
    run_suite,
    suite_report_json,
)
from .sequences import (
    StirlingTriangle,
    dbell_poly,
    dbernoulli_poly,
    dbernoulli_poly_stirling,
    dbernoulli_value,
    deuler_poly,
    deuler_value,
    dfubini_poly,
    dharmonic,
    dhyperharmonic,
    dhyperharmonic_row,
    power_sum,
    s1_triangle,
    s2_triangle,
)
from .series import (
    Series,
    dexp,
    dlog,
    dpolylog,
    ser_compose,
    ser_reciprocal,
)

__version__ = "0.1.0"
