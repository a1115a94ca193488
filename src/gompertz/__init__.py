"""Rational approximant sequences for the Euler-Gompertz constant, exact
identity verification, and arbitrary-precision reference evaluation."""

from .approximants import (ApproximantRow, DecayReport, approx_table,
                           corollary1_pair, corollary2_pair,
                           error_decay_report)
from .errors import (CrossCheckFailure, DegenerateCase, DegenerateDenominator,
                     DomainError, GompertzError, NonIntegrable, PoleError,
                     PrecisionUnreachable, ZeroDenominator)
from .exactmath import (B1_MINUS_HALF, B1_PLUS_HALF, DeltaLinear,
                        alt_factorial_sum, bernoulli, binom_gen, binom_int,
                        factorial, stirling1_unsigned, stirling2)
from .integrals import (frac_integral_closed, g_span_eval,
                        log_integral_closed, log_integral_coeffs, log_moment,
                        shifted_log_moment)
from .precision import (BigFloat, MAX_DECIMAL_DIGITS, PrecisionContext,
                        bigfloat_str, to_bigfloat)
from .reference import (Integrand, delta_reference, digamma, euler_gamma,
                        exp_e1, gamma_real, plan_quadrature,
                        quad_semi_infinite)
from .verify import (DigammaSeriesPoint, HyperGeomParams, IdentityReport,
                     calibrated_convention, check_gauss_terminating,
                     check_gen_binomial_sum, check_int_binomial_sum,
                     check_shift_expansion, digamma_series_coeff,
                     digamma_series_rhs, digamma_series_scan, gauss_grid,
                     gen_binomial_grid, hypergeom_terminating,
                     int_binomial_grid, norm_log_moment,
                     norm_log_moment_deriv, series_partial_trend)

__version__ = "0.1.0"
