"""Closed-form constants for products of two relaxed cutters.

All formulas live under the standing hypothesis lam > 0, mu > 0 and
lam * mu < 4, enforced once by RelaxationPair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError


@dataclass(frozen=True)
class RelaxationPair:
    """Relaxation parameters (lam, mu) with lam * mu < 4."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (self.lam > 0 and self.mu > 0):
            raise UsageError("relaxation parameters must be positive")
        if not self.lam * self.mu < 4:
            raise UsageError(
                f"lambda*mu must be < 4 (got {self.lam} * {self.mu} = "
                f"{self.lam * self.mu})"
            )


def nu(pair: RelaxationPair) -> float:
    """Composite relaxation parameter 4(lam + mu - lam*mu) / (4 - lam*mu).

    The product of a lam- and a mu-relaxed cutter is a nu-relaxed cutter.
    """
    return 4.0 * (pair.lam + pair.mu - pair.lam * pair.mu) / (4.0 - pair.lam * pair.mu)


def split_roots(pair: RelaxationPair) -> tuple[float, float]:
    """(sqrt(1/lam - 1/nu), sqrt(1/mu - 1/nu)); the radicands are >= 0 in
    exact arithmetic (nu >= max{lam, mu}) and rounding below 0 is clipped."""
    n = nu(pair)
    return (math.sqrt(max(1.0 / pair.lam - 1.0 / n, 0.0)),
            math.sqrt(max(1.0 / pair.mu - 1.0 / n, 0.0)))


def alpha_beta(pair: RelaxationPair) -> tuple[float, float]:
    """(alpha, beta) built from the split roots.

    alpha = sqrt(1/lam - 1/nu) - sqrt(1/mu - 1/nu) vanishes exactly when
    lam == mu; beta is the larger of the two roots and is always positive.
    """
    sa, sb = split_roots(pair)
    return sa - sb, max(sa, sb)


def delta_product(delta1: float, delta2: float, kappa: float, pair: RelaxationPair) -> float:
    """Linear-regularity modulus of the product of two relaxed cutters.

    (|alpha| * min{delta1, delta2} / (2 kappa (1 + beta sqrt(nu))))^2,
    given moduli delta1, delta2 in (0, 1] for the factors and a
    kappa-linearly regular pair of fixed-point sets.
    """
    for name, d in (("delta1", delta1), ("delta2", delta2)):
        if not (0.0 < d <= 1.0):
            raise UsageError(f"{name} must lie in (0, 1], got {d}")
    return _modulus(min(delta1, delta2), kappa, pair)


def delta_projections(pair: RelaxationPair, kappa: float) -> float:
    """Modulus specialization for relaxed projections: min{lam, mu} replaces
    min{delta1, delta2} in delta_product."""
    return _modulus(min(pair.lam, pair.mu), kappa, pair)


def _modulus(m: float, kappa: float, pair: RelaxationPair) -> float:
    """(|alpha| m / (2 kappa (1 + beta sqrt(nu))))^2."""
    if not kappa > 0:
        raise UsageError(f"kappa must be positive, got {kappa}")
    a, b = alpha_beta(pair)
    return (abs(a) * m / (2.0 * kappa * (1.0 + b * math.sqrt(nu(pair))))) ** 2


def rho_overrelax(pair: RelaxationPair) -> float:
    """rho = (2 - nu) / nu, the over-relaxation headroom of the composed map.

    Equals (lam/(2-lam) + mu/(2-mu))^-1 when lam != 2 and mu != 2, and 0
    when either parameter is 2; always > -1 under the standing hypothesis.
    """
    n = nu(pair)
    return (2.0 - n) / n


def qlinear_rate(epsilon: float, delta: float, nu_value: float) -> float:
    """Q-linear contraction factor sqrt(1 - (eps*delta / (2 nu))^2).

    Requires eps > 0, delta >= 0 and eps*delta/(2 nu) < 1; delta = 0
    yields the vacuous bound 1.
    """
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    if delta < 0:
        raise UsageError(f"delta must be non-negative, got {delta}")
    if not nu_value > 0:
        raise UsageError(f"nu must be positive, got {nu_value}")
    q = epsilon * delta / (2.0 * nu_value)
    if not q < 1.0:
        raise UsageError(f"epsilon*delta/(2*nu) must be < 1, got {q}")
    return math.sqrt(1.0 - q * q)


def demicontraction_rho(lam: float) -> float:
    """Demicontraction constant (lam - 2) / lam of a lam-relaxed cutter."""
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam}")
    return (lam - 2.0) / lam
