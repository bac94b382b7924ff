import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde.blocks import (Conv1DBlock, Conv2DBlock, RBMEnergy, gen_conv1d, gen_conv2d,
                         gen_dense, gen_rbm, gen_rnn_cell, rbm_free_energy,
                         rnn_forward)
from npde.fieldio import block_to_bytes
from npde.grid import dirichlet, extend, make_grid, mirror, pad, periodic
from npde.reactions import fisher, linear, no_reaction, sigmoid_reaction, source
from npde.solver import step_explicit
from npde.stencil import EllipticCoefficients, _band_matrix


def test_gen_conv1d_constant_a_rows():
    grid = make_grid(6, 1.0, 0.25, dirichlet(0.0))
    block = gen_conv1d(EllipticCoefficients.constant(grid, 1.0), grid)
    for row in block.kernels:
        np.testing.assert_allclose(row, [0.25, 0.5, 0.25], atol=1e-15)


def test_gen_conv1d_zero_a_is_identity():
    grid = make_grid(6, 1.0, 0.25, periodic())
    block = gen_conv1d(EllipticCoefficients.constant(grid, 0.0), grid)
    np.testing.assert_array_equal(block.kernels[:, 1], np.ones(6))
    np.testing.assert_array_equal(block.kernels[:, [0, 2]], np.zeros((6, 2)))
    u = np.arange(6.0)
    np.testing.assert_array_equal(block.forward(u), u)


def test_gen_conv1d_forward_matches_hand_example():
    grid = make_grid(3, 1.0, 0.25, dirichlet(0.0))
    block = gen_conv1d(EllipticCoefficients.constant(grid, 1.0), grid)
    np.testing.assert_allclose(block.forward(np.array([0.0, 1.0, 0.0])),
                               [0.25, 0.5, 0.25], atol=1e-15)


@pytest.mark.parametrize("bc", [periodic(), dirichlet(0.0), dirichlet(1.0),
                                mirror(), extend()])
def test_conv1d_equals_explicit_step(bc):
    rng = np.random.default_rng(21)
    n = 17
    grid = make_grid(n, 0.5, 0.05, bc)
    coeffs = EllipticCoefficients(rng.uniform(0.0, 1.0, n), None, fisher(0.7))
    block = gen_conv1d(coeffs, grid)
    u = rng.uniform(0.0, 1.0, n)
    np.testing.assert_allclose(block.forward(u), step_explicit(u, coeffs, grid),
                               rtol=0, atol=1e-12)


def test_conv1d_folds_convection():
    rng = np.random.default_rng(22)
    n = 11
    grid = make_grid(n, 0.5, 0.05, periodic())
    coeffs = EllipticCoefficients(rng.uniform(0.0, 1.0, n),
                                  rng.uniform(-1.0, 1.0, n))
    block = gen_conv1d(coeffs, grid)
    u = rng.standard_normal(n)
    np.testing.assert_allclose(block.forward(u), step_explicit(u, coeffs, grid),
                               rtol=0, atol=1e-12)


def test_conv2d_identity_cases():
    grid = make_grid(8, 0.5, 0.1, periodic(), ndim=2)
    block = gen_conv2d(EllipticCoefficients.constant(grid, 0.2), grid, "9pt")
    const = np.full((8, 8), 3.0)
    np.testing.assert_allclose(block.forward(const), const, atol=1e-14)
    zero_block = gen_conv2d(EllipticCoefficients.constant(grid, 0.0), grid)
    rng = np.random.default_rng(23)
    u = rng.standard_normal((8, 8))
    np.testing.assert_array_equal(zero_block.forward(u), u)


_BCS_2D = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)])


def _medium_2d(rng, n, bc, activation):
    """A stable per-node 2D medium, with a source drawn to the grid."""
    h = float(rng.uniform(0.1, 1.0))
    grid = make_grid(n, h, float(rng.uniform(0.05, 0.25)) * h**2, bc, ndim=2)
    if activation == "source":
        activation = source(rng.standard_normal(grid.shape))
    return grid, EllipticCoefficients(rng.uniform(0.0, 1.0, grid.shape), None, activation)


@settings(max_examples=100)
@given(bc=_BCS_2D, n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1),
       stencil2d=st.sampled_from(["5pt", "9pt"]),
       activation=st.sampled_from([no_reaction(), fisher(0.7), sigmoid_reaction(1.5),
                                   linear(-0.4), "source"]))
def test_conv2d_equals_2d_diffusion_step(bc, n, seed, stencil2d, activation):
    # the block runs the solver's 2D step, so the two agree bit for bit
    rng = np.random.default_rng(seed)
    grid, coeffs = _medium_2d(rng, n, bc, activation)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    got = gen_conv2d(coeffs, grid, stencil2d).forward(u)
    want = step_explicit(u, coeffs, grid, stencil2d)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60)
@given(bc=_BCS_2D, n=st.integers(3, 10), c=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       stencil2d=st.sampled_from(["5pt", "9pt"]),
       activation=st.sampled_from([no_reaction(), fisher(0.7), sigmoid_reaction(1.5),
                                   linear(-0.4), "source"]))
def test_conv2d_stack_is_each_channel_stepped(bc, n, c, seed, stencil2d, activation):
    rng = np.random.default_rng(seed)
    grid, coeffs = _medium_2d(rng, n, bc, activation)
    block = gen_conv2d(coeffs, grid, stencil2d)
    stack = rng.standard_normal((c, n, n))
    out = block.forward(stack)
    for ch, got in zip(stack, out, strict=True):
        np.testing.assert_array_equal(block.forward(ch).view(np.int64), got.view(np.int64))
    # the block's buffer follows the leading axes back and forth
    np.testing.assert_array_equal(block.forward(stack).view(np.int64), out.view(np.int64))


def test_conv2d_needs_a_2d_grid_and_an_a_shaped_to_it():
    grid1 = make_grid(8, 0.5, 0.02, periodic())
    with pytest.raises(ValueError):
        gen_conv2d(EllipticCoefficients.constant(grid1, 1.0), grid1)
    grid = make_grid(8, 0.5, 0.02, periodic(), ndim=2)
    with pytest.raises(ValueError, match="an A shaped to it"):
        Conv2DBlock(np.ones((8, 7)), grid)
    with pytest.raises(ValueError, match="non-finite"):
        Conv2DBlock(np.full((8, 8), np.nan), grid)
    with pytest.raises(ValueError, match="unknown 2D stencil '7pt'"):
        gen_conv2d(EllipticCoefficients.constant(grid, 1.0), grid, "7pt")


@pytest.mark.parametrize("shape", [(2, 5, 7), (5, 7), (8,), (2, 2, 8, 8), (1, 8, 9)])
def test_conv2d_rejects_a_field_off_the_grid(shape):
    grid = make_grid(8, 0.5, 0.02, periodic(), ndim=2)
    block = gen_conv2d(EllipticCoefficients.constant(grid, 1.0), grid, "9pt")
    with pytest.raises(ValueError):
        block.forward(np.zeros(shape))


def test_dense_identity():
    block = gen_dense(np.eye(3), np.zeros(3))
    u = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(block.forward(u), u)


def test_dense_mean_kernel():
    m = 5
    block = gen_dense(np.full((1, m), 1.0 / m), np.zeros(1))
    u = np.arange(5.0)
    assert block.forward(u)[0] == pytest.approx(u.mean(), rel=1e-15)


def test_dense_two_path_equivalence():
    rng = np.random.default_rng(25)
    for _ in range(10):
        l, m = rng.integers(1, 65), rng.integers(1, 65)
        block = gen_dense(rng.standard_normal((l, m)), rng.standard_normal(l),
                          sigmoid_reaction(1.3))
        u = rng.standard_normal(m)
        channels = np.array([float(np.dot(row, u)) for row in block.W]) + block.bias
        np.testing.assert_allclose(block.forward(u), block.activation.activate(channels),
                                   rtol=0, atol=1e-12)


def test_dense_shape_mismatch():
    with pytest.raises(ValueError):
        gen_dense(np.eye(3), np.zeros(2))
    block = gen_dense(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        block.forward(np.zeros(4))


def test_dense_refuses_a_source_activation():
    # a source is additive; forward composes act(W u + b), which it cannot be
    with pytest.raises(ValueError, match="'source' cannot be composed"):
        gen_dense(np.eye(2), np.zeros(2), source(np.ones(2)))


def test_rnn_cell_dz_zero():
    grid = make_grid(5, 0.5, 0.1, periodic())
    v = 2.0
    cell = gen_rnn_cell(0.0, 0.0, v, grid)
    np.testing.assert_allclose(cell.kernels, np.tile([0.0, 1.0, 0.0], (5, 1)), atol=1e-15)
    assert abs(cell.w_prev) <= 1e-15
    assert cell.w_in == pytest.approx(-grid.k / v, abs=1e-15)


def test_rnn_cell_dz_zero_transverse_coupling():
    # the step is I - (k/v) L_T, L_T the unscaled [1, -2, 1] over h**2
    grid = make_grid(5, 0.5, 0.1, periodic())
    v = 2.0
    cell = gen_rnn_cell(1.0, 0.0, v, grid)
    side = (grid.k / v) / grid.h**2
    np.testing.assert_allclose(cell.kernels, np.tile([-side, 1.0 + 2.0 * side, -side], (5, 1)),
                               atol=1e-14)


def test_rnn_cell_frozen_at_k_zero_limit():
    grid = make_grid(5, 0.5, 1e-12, periodic())
    cell = gen_rnn_cell(0.8, 0.4, 1.5, grid)
    np.testing.assert_allclose(cell.kernels, np.tile([0.0, 1.0, 0.0], (5, 1)), atol=1e-9)
    assert abs(cell.w_prev) <= 1e-9
    assert abs(cell.w_in) <= 1e-9


def test_rnn_cell_satisfies_recurrence():
    # the generated cell must solve the traveling-wave recurrence, its
    # transverse Laplacian padded by the grid's rule, a dirichlet value included
    rng = np.random.default_rng(28)
    n = 9
    Dxy, Dz, v = 0.6, 0.25, 1.1
    for bc in [periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.5)]:
        grid = make_grid(n, 0.5, 0.05, bc)
        cell = gen_rnn_cell(Dxy, Dz, v, grid)
        u = rng.standard_normal(n)
        u_prev = rng.standard_normal(n)
        f = rng.standard_normal(n)
        nxt = rnn_forward(cell, np.concatenate([u, u_prev]), f)[:n]
        P = pad(u, bc)
        lap = (P[:-2] - 2 * u + P[2:]) / grid.h**2
        lhs = -v * (nxt - u) / grid.k
        rhs = Dxy * lap + Dz * (nxt - 2 * u + u_prev) / grid.h**2 + f
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10, err_msg=bc.kind)


@pytest.mark.parametrize("bc", [periodic(), mirror(), extend(), dirichlet(0.0)],
                         ids=["periodic", "mirror", "extend", "dirichlet0"])
def test_rnn_forward_equals_the_dense_cell(bc):
    # the reference is the dense cell: W1 the unscaled band T as an (n, n)
    # matrix, W2 and U multiples of I
    rng = np.random.default_rng(29)
    n, Dxy, Dz, v = 11, 0.7, 0.3, 1.3
    grid = make_grid(n, 0.5, 0.05, bc)
    h, k = grid.h, grid.k
    den = v * h**2 + k * Dz
    T = _band_matrix(np.broadcast_to([[1.0], [-2.0], [1.0]], (3, n)), bc)
    W1 = ((v * h**2 + 2.0 * k * Dz) * np.eye(n) - k * Dxy * T) / den
    W2 = -(k * Dz / den) * np.eye(n)
    U = -(k * h**2 / den) * np.eye(n)
    cell = gen_rnn_cell(Dxy, Dz, v, grid)
    for _ in range(10):
        u, u_prev, f = rng.standard_normal((3, n))
        out = rnn_forward(cell, np.concatenate([u, u_prev]), f)
        np.testing.assert_allclose(out[:n], W1 @ u + W2 @ u_prev + U @ f, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(out[n:], u)


def _companion_radius(cell):
    # columns of the stacked map [u; u_prev] -> rnn_forward, input f = 0
    n = cell.grid.n_points
    M = np.column_stack([rnn_forward(cell, e, np.zeros(n)) for e in np.eye(2 * n)])
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def test_rnn_cell_with_positive_dxy_grows():
    # Dxy > 0 marches the backward heat equation: the highest mode grows by
    # about 1 + 4 k Dxy/(v h**2) per step; Dxy <= 0 is diffusive
    verify_cell = gen_rnn_cell(0.7, 0.3, 1.3, make_grid(16, 0.5, 0.05, periodic()))
    assert 1.0 < _companion_radius(verify_cell) == pytest.approx(1.425, abs=1e-3)
    diffusive = gen_rnn_cell(-0.5, 0.2, 1.0, make_grid(32, 0.5, 0.05, periodic()))
    assert _companion_radius(diffusive) <= 1.0 + 1e-12


def test_rnn_cell_allocates_o_of_n():
    # a 3-tap step and two scalars: neither the build nor the file holds an
    # (n, n) matrix (three of them at n = 2000 are 92 MiB)
    grid = make_grid(2000, 0.5, 0.05, dirichlet(0.5))
    tracemalloc.start()
    try:
        cell = gen_rnn_cell(0.7, 0.3, 1.3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(block_to_bytes(cell)) < 2**20


def test_rnn_degenerate_denominator_rejected():
    grid = make_grid(5, 1.0, 1.0, periodic())
    with pytest.raises(ValueError):
        gen_rnn_cell(0.0, -1.0, 1.0, grid)      # v h^2 + k Dz = 0
    with pytest.raises(ValueError):
        gen_rnn_cell(0.0, 0.0, -1.0, grid)      # v <= 0


def test_rnn_forward_shift_register():
    grid = make_grid(4, 1.0, 0.1, periodic())
    cell = gen_rnn_cell(0.0, 0.0, 1.0, grid)
    zero_cell = type(cell)(np.zeros((4, 3)), grid, 0.0, cell.w_in,
                           cell.Dxy, cell.Dz, cell.v)
    state = np.concatenate([np.arange(4.0), np.zeros(4)])
    out = rnn_forward(zero_cell, state, np.zeros(4))
    np.testing.assert_array_equal(out[:4], np.zeros(4))
    np.testing.assert_array_equal(out[4:], np.arange(4.0))


def test_rnn_forward_zero_state_gives_uf():
    grid = make_grid(4, 1.0, 0.1, periodic())
    cell = gen_rnn_cell(0.3, 0.2, 1.0, grid)
    f = np.array([1.0, -1.0, 2.0, 0.5])
    out = rnn_forward(cell, np.zeros(8), f)
    np.testing.assert_allclose(out[:4], cell.w_in * f, atol=1e-15)
    np.testing.assert_array_equal(out[4:], np.zeros(4))


def test_rnn_forward_shape_check():
    grid = make_grid(4, 1.0, 0.1, periodic())
    cell = gen_rnn_cell(0.0, 0.0, 1.0, grid)
    with pytest.raises(ValueError):
        rnn_forward(cell, np.zeros(7), np.zeros(4))


def test_rbm_free_energy_zero_case():
    n_vis, n_hid = 4, 6
    rbm = RBMEnergy(np.zeros((n_vis, n_hid)), np.zeros(n_vis), np.zeros(n_hid))
    v = np.array([1.0, 0.0, 1.0, 0.0])
    assert rbm_free_energy(rbm, v) == pytest.approx(-n_hid * np.log(2.0), rel=1e-14)


def test_rbm_free_energy_bias_case():
    n_vis, n_hid = 3, 5
    b = np.zeros(n_vis)
    b[0] = 1.0
    rbm = RBMEnergy(np.zeros((n_vis, n_hid)), b, np.zeros(n_hid))
    v = np.zeros(n_vis)
    v[0] = 1.0
    assert rbm_free_energy(rbm, v) == pytest.approx(-1.0 - n_hid * np.log(2.0),
                                                    rel=1e-14)


def test_rbm_free_energy_direction_independent_when_uncoupled():
    rng = np.random.default_rng(31)
    rbm = RBMEnergy(np.zeros((4, 3)), np.zeros(4), rng.standard_normal(3))
    v1, v2 = rng.standard_normal(4), rng.standard_normal(4)
    assert rbm_free_energy(rbm, v1) == pytest.approx(rbm_free_energy(rbm, v2))


def test_rbm_free_energy_hidden_permutation_invariant():
    rng = np.random.default_rng(32)
    W = rng.standard_normal((4, 5))
    b = rng.standard_normal(4)
    c = rng.standard_normal(5)
    v = rng.standard_normal(4)
    perm = rng.permutation(5)
    f1 = rbm_free_energy(RBMEnergy(W, b, c), v)
    f2 = rbm_free_energy(RBMEnergy(W[:, perm], b, c[perm]), v)
    assert f1 == pytest.approx(f2, rel=1e-14)


def test_rbm_free_energy_stable_for_large_inputs():
    rbm = RBMEnergy(np.array([[1000.0], [-1000.0]]), np.zeros(2), np.zeros(1))
    val = rbm_free_energy(rbm, np.array([1.0, 0.0]))
    assert np.isfinite(val) and val == pytest.approx(-1000.0, rel=1e-12)


def test_gen_rbm_band_matches_explicit_step_matrix():
    rng = np.random.default_rng(34)
    n = 8
    grid = make_grid(n, 0.5, 0.05, periodic())
    A = rng.uniform(0.1, 1.0, n)
    rbm = gen_rbm(EllipticCoefficients(A), grid)
    coeffs = EllipticCoefficients(A)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        np.testing.assert_allclose(rbm.W[:, j], step_explicit(e, coeffs, grid),
                                   atol=1e-13)
    # tridiagonal band (plus periodic corners)
    for i in range(n):
        for j in range(n):
            gap = min((i - j) % n, (j - i) % n)
            if gap > 1:
                assert rbm.W[i, j] == 0.0


def test_conv1d_bias_and_shape_validation():
    grid = make_grid(4, 1.0, 0.25, periodic())
    with pytest.raises(ValueError):
        Conv1DBlock(np.zeros((3, 3)), grid)          # wrong row count
    with pytest.raises(ValueError):
        Conv1DBlock(np.zeros((4, 2)), grid)          # wrong tap count
    with pytest.raises(TypeError):
        Conv1DBlock(np.zeros((4, 3)), grid, bias=np.ones(4))   # a conv1d has no bias
