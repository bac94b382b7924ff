"""Every 2D step runs the one separable Laplacian kernel, stencil._laplacian_2d."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import npde.solver
import npde.stencil
from npde.blocks import gen_conv2d
from npde.grid import dirichlet, extend, make_grid, mirror, pad, pad_coefficient, periodic
from npde.reactions import fisher, gray_scott, linear, no_reaction, sigmoid_reaction
from npde.solver import solve_forward, step_explicit, step_two_component
from npde.stencil import STENCILS_2D, EllipticCoefficients, _laplacian_2d, elliptic_apply

EPS = np.finfo(float).eps
BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.7)])
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=200)
@given(bc=BCS, n=st.integers(3, 12), seed=SEEDS, stencil2d=st.sampled_from(STENCILS_2D),
       reaction=st.sampled_from([no_reaction(), fisher(0.8), sigmoid_reaction(1.5),
                                 linear(-0.4)]))
def test_2d_explicit_step_matches_the_nine_tap_reference(correlate_2d, stencil_taps, bc, n, seed,
                                                          stencil2d, reaction):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.001, 0.2)), bc,
                     ndim=2)
    A = rng.uniform(0.0, 2.0, grid.shape)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    taps = stencil_taps[stencil2d]
    P = pad_coefficient(A, bc) * pad(u, bc)
    expected = u + grid.k * (correlate_2d(P, taps) / grid.h**2 + reaction(u))
    got = step_explicit(u, EllipticCoefficients(A, None, reaction), grid, stencil2d)
    # reordering a sum of |taps| weights moves it by at most 8 eps sum|taps| max|P|;
    # k/h**2 carries that into the step, whose own additions round within 4 eps
    c, total, biggest = grid.k / grid.h**2, float(np.abs(taps).sum()), float(np.abs(P).max())
    update = np.abs(u).max() + c * total * biggest + grid.k * np.abs(reaction(u)).max()
    assert np.max(np.abs(got - expected)) <= c * 8.0 * EPS * total * biggest + 4.0 * EPS * update


def test_2d_steps_never_run_the_general_3x3_correlation(monkeypatch):
    # no module defines one: each 2D step runs the separable _laplacian_2d
    src = Path(npde.stencil.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "correlate_2d" in p.read_text()] == []
    runs = []

    def counted(P, S, stencil2d="5pt"):
        lap = _laplacian_2d(P, S, stencil2d)

        def run(*args):
            runs.append(stencil2d)
            return lap(*args)
        return run

    monkeypatch.setattr(npde.stencil, "_laplacian_2d", counted)
    monkeypatch.setattr(npde.solver, "_laplacian_2d", counted)
    grid = make_grid(8, 0.5, 0.01, mirror(), ndim=2)
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(0.5))
    u = np.random.default_rng(7).uniform(0.0, 1.0, grid.shape)
    for stencil2d in STENCILS_2D:
        block = gen_conv2d(coeffs, grid, stencil2d)
        for path in (lambda: solve_forward(u, coeffs, grid, 3, stencil2d=stencil2d),
                     lambda: block.forward(u),
                     lambda: elliptic_apply(u, coeffs, grid, stencil2d)):
            runs.clear()
            path()
            assert runs and set(runs) == {stencil2d}
    runs.clear()
    step_two_component(u, 0.5 * u, 1.0, 0.5, gray_scott(0.04, 0.06), grid)
    assert runs == ["9pt"]


# sha256 of the final slices of the 20-step solves below, over 5 bcs and both
# stencils, per reaction, taken before the 2D step became one object: a change
# of the step's structure keeps these bytes. The sigmoid digest also holds
# np.exp's rounding, which a numpy build or CPU without the same exp may not share.
@pytest.mark.parametrize("reaction, digest", [
    (no_reaction(), "29d7df75eec7b72dd66dc2f225ab40a5b9e889b73a248d984e58acf45db5c94a"),
    (fisher(0.8), "9a0034c2370023d85ff8797466b8e25208f842437d698621e3973cf20b138b14"),
    (sigmoid_reaction(1.5), "f99160f232bf28c6e3dc3f74cc0920730b69217b4b9b5062277eafaa7727eddd"),
    (linear(-0.4), "d7b07f06626d19017e29d375a19167bde882e4e81d26a1fe573596d3fa71f471"),
], ids=["none", "fisher", "sigmoid", "linear"])
def test_2d_solves_keep_their_pinned_bytes(reaction, digest):
    sha = hashlib.sha256()
    for bc in (periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.7)):
        for stencil2d in STENCILS_2D:
            rng = np.random.default_rng(33)
            grid = make_grid(12, 0.5, 0.05, bc, ndim=2)
            A = rng.uniform(0.2, 1.2, grid.shape)
            u = rng.uniform(-1.0, 1.0, grid.shape)
            coeffs = EllipticCoefficients(A, None, reaction)
            sha.update(solve_forward(u, coeffs, grid, 20, stencil2d=stencil2d).final().tobytes())
    assert sha.hexdigest() == digest
