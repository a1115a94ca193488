"""Rational approximant sequences for the Euler-Gompertz constant, exact
identity verification, and arbitrary-precision reference evaluation."""

from .approximants import (ApproximantRow, approx_table, corollary1_pair,
                           corollary2_pair)
from .errors import (CrossCheckFailure, DomainError, GompertzError,
                     NonIntegrable, PoleError, PrecisionUnreachable)
from .exactmath import (alt_factorial_sum, bernoulli, binom_gen, binom_int,
                        factorial, stirling1_unsigned, stirling2)
from .integrals import (frac_integral_closed, g_span_eval,
                        log_integral_closed, log_moment, shifted_log_moment)
from .precision import (BigFloat, MAX_DECIMAL_DIGITS, PrecisionContext,
                        bigfloat_str, to_bigfloat)
from .reference import (Integrand, delta_reference, digamma, euler_gamma,
                        exp_e1, gamma_real, plan_quadrature,
                        quad_semi_infinite)
from .verify import (B1_MINUS_HALF, B1_PLUS_HALF, DigammaSeriesPoint,
                     calibrated_convention, digamma_series_coeff,
                     digamma_series_rhs, digamma_series_scan, gauss_grid,
                     gen_binomial_grid, int_binomial_grid, point_residual,
                     point_verdict, series_partial_trend)

__version__ = "0.1.0"
