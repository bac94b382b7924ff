"""Every 2D step runs the one separable Laplacian kernel, stencil._laplacian_2d."""

import numpy as np
from hypothesis import given, settings, strategies as st

import npde.solver
import npde.stencil
from npde.grid import dirichlet, extend, make_grid, mirror, pad, pad_coefficient, periodic
from npde.reactions import fisher, gray_scott, linear, no_reaction, sigmoid_reaction
from npde.solver import solve_forward, step_explicit, step_two_component
from npde.stencil import (STENCILS_2D, EllipticCoefficients, _correlate_2d, elliptic_apply,
                          stencil_2d)

EPS = np.finfo(float).eps
BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.7)])
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=200)
@given(bc=BCS, n=st.integers(3, 12), seed=SEEDS, stencil2d=st.sampled_from(STENCILS_2D),
       reaction=st.sampled_from([no_reaction(), fisher(0.8), sigmoid_reaction(1.5),
                                 linear(-0.4)]))
def test_2d_explicit_step_matches_the_nine_tap_reference(bc, n, seed, stencil2d, reaction):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.001, 0.2)), bc,
                     ndim=2)
    A = rng.uniform(0.0, 2.0, grid.shape)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    taps = stencil_2d(stencil2d)
    P = pad_coefficient(A, bc) * pad(u, bc)
    expected = u + grid.k * (_correlate_2d(P, taps) / grid.h**2 + reaction(u))
    got = step_explicit(u, EllipticCoefficients(A, None, reaction), grid, stencil2d)
    # reordering a sum of |taps| weights moves it by at most 8 eps sum|taps| max|P|;
    # k/h**2 carries that into the step, whose own additions round within 4 eps
    c, total, biggest = grid.k / grid.h**2, float(np.abs(taps).sum()), float(np.abs(P).max())
    update = np.abs(u).max() + c * total * biggest + grid.k * np.abs(reaction(u)).max()
    assert np.max(np.abs(got - expected)) <= c * 8.0 * EPS * total * biggest + 4.0 * EPS * update


def test_2d_steps_never_run_the_general_3x3_correlation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 2D Laplacian step ran _correlate_2d")

    monkeypatch.setattr(npde.stencil, "_correlate_2d", refuse)
    monkeypatch.setattr(npde.solver, "_correlate_2d", refuse, raising=False)
    grid = make_grid(8, 0.5, 0.01, mirror(), ndim=2)
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(0.5))
    u = np.random.default_rng(7).uniform(0.0, 1.0, grid.shape)
    for stencil2d in STENCILS_2D:
        solve_forward(u, coeffs, grid, 3, stencil2d=stencil2d)
        elliptic_apply(u, coeffs, grid, stencil2d)
    step_two_component(u, 0.5 * u, 1.0, 0.5, gray_scott(0.04, 0.06), grid)
