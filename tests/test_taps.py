"""Properties of the one 1D step operator: the per-node taps.

The ghost fill pads like np.pad and the ghost scatter is its adjoint; the
taps step equals the divergence-form step u + k * elliptic_apply(u) to
rounding; the dense band is the step's matrix; the implicit bands solve the
backward step.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from npde.blocks import _laplacian_matrix, gen_conv1d, gen_rbm
from npde.grid import (_ghost_fill, _ghost_scatter, dirichlet, extend, make_grid,
                       mirror, periodic)
from npde.solver import solve_forward, step_explicit, step_implicit
from npde.stencil import (EllipticCoefficients, apply_stencil, diffusion_term,
                          elliptic_apply, laplacian_1d)

BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)])
SEEDS = st.integers(0, 2**32 - 1)
EPS = np.finfo(float).eps


def _fill(u, bc):
    P = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    P[..., 1:-1] = u
    return _ghost_fill(P, bc)


def _case(seed, bc, with_b):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    grid = make_grid(n, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.001, 0.1)), bc)
    B = rng.uniform(-2.0, 2.0, n) if with_b else None
    return rng, grid, EllipticCoefficients(rng.uniform(0.0, 1.0, n), B)


@settings(max_examples=80)
@given(seed=SEEDS, bc=BCS, batch=st.integers(1, 3))
def test_ghost_fill_pads_and_scatter_is_its_adjoint(np_pad, seed, bc, batch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    u = rng.standard_normal((batch, n))
    v = rng.standard_normal((batch, n + 2))
    for row, filled_row in zip(u, _fill(u, bc)):
        np.testing.assert_array_equal(filled_row, np_pad(row, bc))
    # a dirichlet ghost holds a constant: the adjoint pairs the linear part
    filled = _fill(u, bc) - _fill(np.zeros_like(u), bc)
    lhs = float(np.vdot(filled, v))
    rhs = float(np.vdot(u, _ghost_scatter(v.copy(), bc)))
    # recursive-summation bound over the (n + 2) * batch products
    assert abs(lhs - rhs) <= 2 * v.size * EPS * float(np.vdot(np.abs(filled), np.abs(v)))


@settings(max_examples=100)
@given(seed=SEEDS, bc=BCS, with_b=st.booleans())
def test_taps_step_equals_divergence_form(seed, bc, with_b):
    rng, grid, coeffs = _case(seed, bc, with_b)
    u = rng.standard_normal(grid.n_points)
    taps_step = step_explicit(u, coeffs, grid)
    divergence_form = u + grid.k * elliptic_apply(u, coeffs, grid)
    # both sides sum a few products of size <= |u|, r|A||u| and (k/h)|B||u|
    scale = max(float(np.max(np.abs(u))), abs(grid.bc.value))
    b = 0.0 if coeffs.B is None else float(np.max(np.abs(coeffs.B)))
    tol = 16 * EPS * scale * (1.0 + 4.0 * grid.r * float(np.max(coeffs.A)) + grid.k / grid.h * b)
    assert float(np.max(np.abs(taps_step - divergence_form))) <= tol


@settings(max_examples=60)
@given(seed=SEEDS, bc=BCS, with_b=st.booleans(), n_steps=st.integers(1, 6))
def test_block_and_solver_share_one_kernel(seed, bc, with_b, n_steps):
    rng, grid, coeffs = _case(seed, bc, with_b)
    u = rng.standard_normal(grid.n_points)
    block = gen_conv1d(coeffs, grid)
    x = u
    for _ in range(n_steps):
        x = block.forward(x)
    assert float(np.max(np.abs(x - solve_forward(u, coeffs, grid, n_steps).final()))) == 0.0


@settings(max_examples=60)
@given(seed=SEEDS, bc=BCS)
def test_dense_band_columns_are_unit_vector_steps(seed, bc):
    rng, grid, coeffs = _case(seed, bc, False)
    n = grid.n_points
    diffusion = EllipticCoefficients(coeffs.A)
    W = gen_rbm(diffusion, grid).W
    L = _laplacian_matrix(grid)
    step_offset = step_explicit(np.zeros(n), diffusion, grid)
    stencil_offset = apply_stencil(np.zeros(n), laplacian_1d(grid.h), bc)
    # the dirichlet offset cancels in the subtraction to within the rounding
    # of a sum of the ghost term and a tap
    g = 1.0 + abs(bc.value)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        np.testing.assert_allclose(W[:, j], step_explicit(e, diffusion, grid) - step_offset,
                                   rtol=0, atol=4 * EPS * g * np.max(np.abs(W)))
        np.testing.assert_allclose(L[:, j], apply_stencil(e, laplacian_1d(grid.h), bc)
                                   - stencil_offset, rtol=0, atol=4 * EPS * g * np.max(np.abs(L)))


@settings(max_examples=80)
@given(seed=SEEDS, bc=BCS)
def test_implicit_residual_over_random_coefficients(seed, bc):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    grid = make_grid(n, 0.5, float(rng.uniform(0.01, 1.0)), bc)
    A = rng.uniform(0.0, 2.0, n)
    u = rng.standard_normal(n)
    out = step_implicit(u, EllipticCoefficients(A), grid)
    # substituting the output into the backward recurrence recovers the input
    back = out - grid.k * diffusion_term(out, A, grid)
    assert float(np.max(np.abs(back - u))) <= 1e-10
