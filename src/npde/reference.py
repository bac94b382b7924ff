"""Closed-form oracles the numerical machinery is checked against.

A point-source (Gaussian) profile under pure diffusion keeps its Gaussian
shape with variance growing as sigma2 + 2 D T and mass conserved; the
logistic reaction-diffusion front travels at no less than 2 sqrt(r D); and
the logistic function satisfies sigma' = r * sigma * (1 - sigma), the same
form as the logistic reaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reactions import sigmoid


@dataclass(frozen=True)
class GaussianProfile:
    """amplitude * exp(-(x - center)^2 / (2 sigma2))."""

    amplitude: float
    center: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("variance sigma2 must be positive")

    def sample(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-(x - self.center) ** 2 / (2.0 * self.sigma2))


def heat_kernel_evolve(p: GaussianProfile, D: float, T: float) -> GaussianProfile:
    """Diffuse a Gaussian for time T: sigma2 grows by 2 D T, mass is conserved.

    Mass conservation keeps amplitude * sqrt(sigma2) invariant.
    """
    if D < 0 or T < 0:
        raise ValueError("D and T must be non-negative")
    sigma2 = p.sigma2 + 2.0 * D * T
    return GaussianProfile(p.amplitude * np.sqrt(p.sigma2 / sigma2), p.center, sigma2)


def fisher_min_front_speed(r: float, D: float) -> float:
    """Minimal pulled-front speed 2 sqrt(r D) of the logistic RDE."""
    if r < 0 or D < 0:
        raise ValueError("r and D must be non-negative")
    return 2.0 * np.sqrt(r * D)


def sigmoid_derivative_identity(r: float, x: float) -> tuple[float, float]:
    """Both sides of d/dx sigmoid(r x) = r * u * (1 - u), u = sigmoid(r x).

    lhs evaluates the derivative in quotient form r e^{-|z|}/(1+e^{-|z|})^2
    (even in z = r x), rhs the logistic-reaction form; they agree within
    1e-12.
    """
    z = abs(r * x)
    e = np.exp(-z)
    lhs = r * e / (1.0 + e) ** 2
    u = float(sigmoid(np.asarray(r * x)))
    rhs = r * u * (1.0 - u)
    return float(lhs), rhs


def front_position(u: np.ndarray, h: float, level: float = 0.5) -> float:
    """Leftmost crossing of ``level`` for a rightward-facing front.

    The profile is ~1 on the left and ~0 on the right; the crossing between
    the last node above the level and the next node is linearly interpolated.
    """
    u = np.asarray(u, dtype=float)
    below = np.nonzero(u < level)[0]
    if below.size == 0 or below[0] == 0:
        raise ValueError("profile has no interior crossing of the level")
    j = below[0]
    u_hi, u_lo = u[j - 1], u[j]
    frac = (u_hi - level) / (u_hi - u_lo)
    return (j - 1 + frac) * h


def front_speed(positions: np.ndarray, times: np.ndarray) -> float:
    """Least-squares slope of front position over the second half of the run.

    The first half is discarded as transient.
    """
    positions = np.asarray(positions, dtype=float)
    times = np.asarray(times, dtype=float)
    if positions.size != times.size or positions.size < 4:
        raise ValueError("need at least 4 matched samples")
    start = positions.size // 2
    slope, _ = np.polyfit(times[start:], positions[start:], 1)
    return float(slope)
