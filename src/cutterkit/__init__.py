"""cutterkit: products of relaxed cutters with relaxation beyond two.

Operator constructors, the over-relaxed composed iteration, closed-form
regularity and rate constants, and a diagnostics suite that empirically
certifies the inequalities behind them.
"""

from .diagnostics import (ProbeConfig, RegularityReport, cutter_check,
                          dc_gap_check, demicontraction_check, fejer_check,
                          lb1_check, lb2_check, pair_regularity_estimate,
                          rate_certificate, regularity_modulus_estimate,
                          relaxed_cutter_check, sample_ball)
from .engine import (IterationConfig, Trace, iterate, iterate_reformulated,
                     run_dr, run_map)
from .errors import (ConfigError, CutterKitError, DegenerateSubgradientError,
                     DivergenceError, EstimationError, InfeasibleError,
                     ProbeFailure, UsageError)
from .geometry import (AffineSubspace, Ball, Box, ConvexSet, HalfSpace,
                       Hyperplane, as_point, intersect_affine)
from .operators import (Operator, compose, identity, projection_operator,
                        relax, subgradient_projection)
from .svg import emit_svg
from .theory import (RelaxationPair, alpha_beta, delta_product,
                     delta_projections, demicontraction_rho, nu, qlinear_rate,
                     rho_overrelax)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace", "Ball", "Box", "ConfigError", "ConvexSet",
    "CutterKitError", "DegenerateSubgradientError", "DivergenceError",
    "EstimationError", "HalfSpace", "Hyperplane", "InfeasibleError",
    "IterationConfig", "Operator", "ProbeConfig", "ProbeFailure",
    "RegularityReport", "RelaxationPair", "Trace", "UsageError",
    "alpha_beta", "as_point", "compose", "cutter_check",
    "dc_gap_check", "delta_product", "delta_projections",
    "demicontraction_check", "demicontraction_rho", "emit_svg",
    "fejer_check", "identity", "intersect_affine",
    "iterate", "iterate_reformulated", "lb1_check", "lb2_check", "nu",
    "pair_regularity_estimate", "projection_operator",
    "qlinear_rate", "rate_certificate", "regularity_modulus_estimate",
    "relax", "relaxed_cutter_check", "rho_overrelax", "run_dr", "run_map",
    "sample_ball", "subgradient_projection",
]
