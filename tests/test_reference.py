import numpy as np
import pytest

from npde.reactions import sigmoid_reaction
from npde.reference import (GaussianProfile, fisher_min_front_speed,
                            front_position, front_speed, heat_kernel_evolve)


def test_heat_kernel_no_time_no_change():
    p = GaussianProfile(1.0, 0.0, 1.0)
    assert heat_kernel_evolve(p, 1.0, 0.0) == p
    assert heat_kernel_evolve(p, 0.0, 5.0) == p


def test_heat_kernel_variance_growth():
    p = heat_kernel_evolve(GaussianProfile(1.0, 0.0, 1.0), 1.0, 0.5)
    assert p.sigma2 == pytest.approx(2.0)
    assert p.amplitude == pytest.approx(1.0 / np.sqrt(2.0))


def test_heat_kernel_conserves_mass():
    p0 = GaussianProfile(2.0, 1.0, 0.5)
    p1 = heat_kernel_evolve(p0, 0.7, 1.3)
    assert p0.amplitude * np.sqrt(p0.sigma2) == pytest.approx(
        p1.amplitude * np.sqrt(p1.sigma2), rel=1e-14)


def test_gaussian_requires_positive_variance():
    with pytest.raises(ValueError):
        GaussianProfile(1.0, 0.0, 0.0)


def test_fisher_speed_values():
    assert fisher_min_front_speed(1.0, 1.0) == pytest.approx(2.0)
    assert fisher_min_front_speed(4.0, 1.0) == pytest.approx(4.0)
    assert fisher_min_front_speed(0.0, 1.0) == 0.0


def sigmoid_derivative_identity(r: float, x: float) -> tuple[float, float]:
    """Both sides of d/dx sigmoid(r x) = r u (1 - u), u = sigmoid(r x).

    lhs is the derivative in quotient form r e^{-|z|}/(1+e^{-|z|})^2 (even in
    z = r x), rhs the package's sigmoid derivative, the logistic-reaction form.
    """
    e = np.exp(-abs(r * x))
    return r * e / (1.0 + e) ** 2, float(sigmoid_reaction(r).deriv(np.array(x)))


def test_sigmoid_derivative_identity_at_zero():
    lhs, rhs = sigmoid_derivative_identity(1.0, 0.0)
    assert lhs == pytest.approx(0.25, abs=1e-14)
    assert abs(lhs - rhs) <= 1e-12
    lhs, rhs = sigmoid_derivative_identity(2.0, 0.0)
    assert lhs == pytest.approx(0.5, abs=1e-14)
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("x", [-40.0, -2.0, -0.3, 0.0, 0.7, 5.0, 40.0])
def test_sigmoid_derivative_identity_everywhere(r, x):
    lhs, rhs = sigmoid_derivative_identity(r, x)
    assert abs(lhs - rhs) <= 1e-12


def test_sigmoid_derivative_saturates():
    for x in (50.0, -50.0):
        lhs, rhs = sigmoid_derivative_identity(1.0, x)
        assert abs(lhs) < 1e-20 and abs(rhs) < 1e-20


def test_front_position_interpolates():
    u = np.array([1.0, 0.75, 0.25, 0.0])
    assert front_position(u, 1.0) == pytest.approx(1.5)
    assert front_position(u, 0.5) == pytest.approx(0.75)


def test_front_position_requires_crossing():
    with pytest.raises(ValueError):
        front_position(np.array([1.0, 1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        front_position(np.array([0.0, 0.0, 0.0]), 1.0)


def test_front_speed_discards_transient():
    times = np.arange(10.0)
    positions = 2.0 * times
    positions[:3] += 5.0            # corrupted early transient
    assert front_speed(positions, times) == pytest.approx(2.0)
