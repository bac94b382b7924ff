import numpy as np
import pytest

from npde.grid import dirichlet, make_grid, periodic
from npde.reactions import fisher, linear
from npde.stencil import EllipticCoefficients, _apply_taps, _step_taps, elliptic_apply


def _variable_stencil(A, h):
    """The per-node taps (1/h**2)[A_{j-1}, -2 A_j, A_{j+1}] of the middle node."""
    grid = make_grid(3, h, 1.0, periodic())
    return _step_taps(np.asarray(A, dtype=float), None, grid, identity=0.0)[:, 1]


def test_variable_stencil_reduces_to_laplacian():
    np.testing.assert_array_equal(_variable_stencil([1, 1, 1], 1.0), [1, -2, 1])


def test_variable_stencil_substitution():
    np.testing.assert_array_equal(_variable_stencil([2, 3, 4], 1.0), [2, -6, 4])
    np.testing.assert_array_equal(_variable_stencil([0, 0, 0], 1.0), [0, 0, 0])


def test_variable_stencil_equals_scaled_laplacian_for_constant_a(stencil_taps):
    a, h = 1.7, 0.25
    np.testing.assert_array_equal(_variable_stencil([a, a, a], h),
                                  a * (stencil_taps["3pt"] / h**2))


def test_apply_taps_hand_convolution(np_pad):
    out = _apply_taps(np.array([1.0, -2.0, 1.0]), np_pad(np.array([0.0, 1.0, 0.0]),
                                                         dirichlet(0.0)))
    np.testing.assert_array_equal(out, [1, -2, 1])


def test_apply_taps_identity(np_pad):
    f = np.array([1.0, 2.0, 3.0])
    for bc in (periodic(), dirichlet(7.0)):
        np.testing.assert_array_equal(_apply_taps(np.array([0.0, 1.0, 0.0]), np_pad(f, bc)), f)


def test_zero_sum_stencil_annihilates_constants(np_pad, correlate_2d, stencil_taps):
    f = np.full(6, 7.0)
    out = _apply_taps(np.array([1.0, -2.0, 1.0]), np_pad(f, periodic()))
    np.testing.assert_allclose(out, 0.0, atol=1e-14)
    out2d = correlate_2d(np_pad(np.full((5, 5), 7.0), periodic()), stencil_taps["5pt"])
    np.testing.assert_allclose(out2d, 0.0, atol=1e-14)


def test_9pt_annihilates_linear_functions_interior(np_pad, correlate_2d, stencil_taps):
    # oracle: direct 3x3 correlation sum at one interior node
    n = 7
    x = np.arange(n, dtype=float)
    f = np.tile(x, (n, 1))                     # f(x, y) = x
    taps = stencil_taps["9pt"]
    out = correlate_2d(np_pad(f, periodic()), taps)
    manual = sum(taps[1 + di, 1 + dj] * f[3 + di, 3 + dj]
                 for di in (-1, 0, 1) for dj in (-1, 0, 1))
    assert out[3, 3] == pytest.approx(manual, abs=1e-14)
    np.testing.assert_allclose(out[1:-1, 1:-1], 0.0, atol=1e-12)


def test_apply_taps_linearity(np_pad):
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal(8), rng.standard_normal(8)
    s = rng.standard_normal(3)
    a, b = 2.5, -1.25

    def apply(field):
        return _apply_taps(s, np_pad(field, periodic()))

    np.testing.assert_allclose(apply(a * f + b * g), a * apply(f) + b * apply(g),
                               rtol=1e-12, atol=1e-12)


def test_elliptic_reduces_to_laplacian(np_pad, stencil_taps):
    grid = make_grid(9, 0.5, 0.05, periodic())
    rng = np.random.default_rng(4)
    u = rng.standard_normal(9)
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    np.testing.assert_allclose(
        elliptic_apply(u, coeffs, grid),
        np.correlate(np_pad(u, grid.bc), stencil_taps["3pt"] / grid.h**2, "valid"),
        rtol=1e-12, atol=1e-12)


def test_elliptic_constant_a_scales(np_pad, stencil_taps):
    grid = make_grid(9, 0.5, 0.05, periodic())
    rng = np.random.default_rng(5)
    u = rng.standard_normal(9)
    const = 2.75
    coeffs = EllipticCoefficients.constant(grid, const)
    np.testing.assert_allclose(
        elliptic_apply(u, coeffs, grid),
        const * np.correlate(np_pad(u, grid.bc), stencil_taps["3pt"] / grid.h**2, "valid"),
        rtol=1e-12, atol=1e-12)


def test_elliptic_reaction_only_identity():
    grid = make_grid(5, 1.0, 0.1, periodic())
    u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    coeffs = EllipticCoefficients.constant(grid, 0.0, reaction=linear(1.0))
    np.testing.assert_array_equal(elliptic_apply(u, coeffs, grid), u)


def test_elliptic_fisher_adds_quarter_at_half():
    grid = make_grid(5, 1.0, 0.1, periodic())
    u = np.full(5, 0.5)
    base = EllipticCoefficients.constant(grid, 1.0)
    with_rxn = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(1.0))
    np.testing.assert_allclose(elliptic_apply(u, with_rxn, grid),
                               elliptic_apply(u, base, grid) + 0.25,
                               rtol=0, atol=1e-15)


def test_elliptic_shape_mismatch():
    grid = make_grid(5, 1.0, 0.1, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    with pytest.raises(ValueError):
        elliptic_apply(np.zeros(4), coeffs, grid)
    bad = EllipticCoefficients(np.zeros(4))
    with pytest.raises(ValueError):
        elliptic_apply(np.zeros(5), bad, grid)


def test_convection_uses_centered_difference():
    grid = make_grid(5, 0.5, 0.05, periodic())
    u = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    B = np.full(5, 2.0)
    coeffs = EllipticCoefficients(np.zeros(5), B)
    out = elliptic_apply(u, coeffs, grid)
    up = np.concatenate([[4.0], u, [0.0]])
    expected = B * (up[2:] - up[:-2]) / (2 * grid.h)
    np.testing.assert_allclose(out, expected, rtol=1e-14)
