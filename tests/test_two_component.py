"""The stacked, separable two-component step against the per-component 9-tap step."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde import solver
from npde.grid import _fill_ghosts, dirichlet, extend, make_grid, mirror, pad, periodic
from npde.reactions import TwoComponentReaction, gray_scott
from npde.solver import (DIVERGENCE_FACTOR, DivergenceError, solve_two_component,
                         step_two_component)

EPS = np.finfo(float).eps
BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.7)])
SEEDS = st.integers(0, 2**32 - 1)


def _reference_step(U, V, Du, Dv, rxn, grid, correlate_2d, taps):
    """One step as two independent correlations of padded channels by the 9-tap table."""
    h2 = grid.h**2
    lap_u = correlate_2d(pad(U, grid.bc), taps) / h2
    lap_v = correlate_2d(pad(V, grid.bc), taps) / h2
    return (U + grid.k * (Du * lap_u + rxn.f(U, V)),
            V + grid.k * (Dv * lap_v + rxn.g(U, V)))


def _tolerance(X, Y, D, reaction, grid):
    """Gap allowed between the separable and the 9-tap result, from the dtype alone.

    The 9-tap sum has |taps| summing to 6, so reordering it moves the unscaled
    Laplacian by at most 8 eps 6 max|P|; k D/h**2 carries that into the step,
    and the update's own additions round within a few eps of their terms.
    """
    c = grid.k * D / grid.h**2
    biggest = float(np.max(np.abs(pad(X, grid.bc))))
    update = np.max(np.abs(X)) + c * 6.0 * biggest + grid.k * np.max(np.abs(reaction(X, Y)))
    return c * 8.0 * EPS * 6.0 * biggest + 4.0 * EPS * update


def _case(seed, n, bc):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.01, 0.2)), bc, ndim=2)
    U = rng.uniform(0.0, 1.0, (n, n))
    V = rng.uniform(0.0, 1.0, (n, n))
    # k D/h**2 <= 0.2, inside the explicit limit, so chained steps stay bounded
    Du, Dv = (float(d) for d in rng.uniform(0.0, 0.2, 2) * grid.h**2 / grid.k)
    rxn = gray_scott(float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.0, 0.1)))
    return grid, U, V, Du, Dv, rxn


@settings(max_examples=120)
@given(seed=SEEDS, n=st.integers(3, 12), bc=BCS)
def test_step_matches_nine_tap_reference(correlate_2d, stencil_taps, seed, n, bc):
    grid, U, V, Du, Dv, rxn = _case(seed, n, bc)
    U2, V2 = step_two_component(U, V, Du, Dv, rxn, grid)
    U_ref, V_ref = _reference_step(U, V, Du, Dv, rxn, grid, correlate_2d, stencil_taps["9pt"])
    assert np.max(np.abs(U2 - U_ref)) <= _tolerance(U, V, Du, rxn.f, grid)
    assert np.max(np.abs(V2 - V_ref)) <= _tolerance(V, U, Dv, lambda V, U: rxn.g(U, V), grid)


@settings(max_examples=80)
@given(seed=SEEDS, n=st.integers(3, 12), bc=BCS)
def test_ghost_fill_equals_grid_pad_per_channel(np_pad, seed, n, bc):
    # grid.pad is this fill, so numpy's np.pad modes are the independent reference
    X = np.random.default_rng(seed).standard_normal((2, n, n))
    P = np.full((2, n + 2, n + 2), np.nan)
    P[:, 1:-1, 1:-1] = X
    _fill_ghosts(P, bc)
    for c in range(2):
        np.testing.assert_array_equal(P[c], np_pad(X[c], bc))


@settings(max_examples=40)
@given(seed=SEEDS, n=st.integers(3, 12), bc=BCS, n_steps=st.integers(1, 6))
def test_solve_equals_chained_steps_bit_for_bit(seed, n, bc, n_steps):
    grid, U, V, Du, Dv, rxn = _case(seed, n, bc)
    U_s, V_s, _ = solve_two_component(U, V, Du, Dv, rxn, grid, n_steps)
    U_c, V_c = U, V
    for _ in range(n_steps):
        U_c, V_c = step_two_component(U_c, V_c, Du, Dv, rxn, grid)
    np.testing.assert_array_equal(U_s, U_c)
    np.testing.assert_array_equal(V_s, V_c)


@pytest.mark.parametrize("bc", [periodic(), mirror(), extend(), dirichlet(0.7)])
def test_copy_path_equals_fused_kinetics_bit_for_bit(bc):
    # a reaction rebuilt from f and g alone, as a tracer wrapping them does
    grid, U, V, Du, Dv, rxn = _case(11, 10, bc)
    assert rxn.fused is not None
    copied = TwoComponentReaction(rxn.name, rxn.f, rxn.g)
    U_f, V_f, _ = solve_two_component(U, V, Du, Dv, rxn, grid, 30)
    U_c, V_c, _ = solve_two_component(U, V, Du, Dv, copied, grid, 30)
    np.testing.assert_array_equal(U_f.view(np.int64), U_c.view(np.int64))
    np.testing.assert_array_equal(V_f.view(np.int64), V_c.view(np.int64))


def test_inputs_and_reaction_outputs_are_not_written(correlate_2d, stencil_taps):
    grid, U, V, Du, Dv, _ = _case(3, 9, mirror())
    U0, V0 = U.copy(), V.copy()
    held = np.full(grid.shape, 0.25)
    aliasing = TwoComponentReaction("aliasing", lambda U, V: U, lambda U, V: held)
    U2, V2 = step_two_component(U, V, Du, Dv, aliasing, grid)
    U_ref, V_ref = _reference_step(U0, V0, Du, Dv, aliasing, grid, correlate_2d,
                                   stencil_taps["9pt"])
    assert np.max(np.abs(U2 - U_ref)) <= _tolerance(U0, V0, Du, aliasing.f, grid)
    assert np.max(np.abs(V2 - V_ref)) <= _tolerance(V0, U0, Dv, lambda V, U: held, grid)
    solve_two_component(U, V, Du, Dv, aliasing, grid, 5)
    np.testing.assert_array_equal(U, U0)
    np.testing.assert_array_equal(V, V0)
    np.testing.assert_array_equal(held, 0.25)


def test_recorded_frames_are_copies():
    grid, U, V, Du, Dv, rxn = _case(4, 8, periodic())
    _, V_final, frames = solve_two_component(U, V, Du, Dv, rxn, grid, 4, record_every=2)
    assert len(frames) == 2
    assert not np.array_equal(frames[0], frames[1])
    np.testing.assert_array_equal(frames[-1], V_final)


def test_negative_record_every_is_refused():
    # step % -2 == 0 would record every 2nd step as if the sign were not there
    grid, U, V, Du, Dv, rxn = _case(4, 8, periodic())
    with pytest.raises(ValueError, match="record_every"):
        solve_two_component(U, V, Du, Dv, rxn, grid, 4, record_every=-2)


def _uniform_growth(f):
    """U = 1, V = 0, no diffusion: U is multiplied by 10 per step while f = 9 U."""
    grid = make_grid(6, 1.0, 1.0, periodic(), ndim=2)
    rxn = TwoComponentReaction("growth", f, lambda U, V: 0.0 * V)
    return np.ones(grid.shape), np.zeros(grid.shape), rxn, grid


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runaway_growth_trips_the_bound_at_its_step():
    U, V, rxn, grid = _uniform_growth(lambda U, V: 9.0 * U)
    # max|U| after step s is 10**s; the bound is DIVERGENCE_FACTOR * (1 + 1)
    expected = next(s for s in range(1, 40) if 10.0**s > 2.0 * DIVERGENCE_FACTOR)
    with pytest.raises(DivergenceError, match="exceeded") as err:
        solve_two_component(U, V, 0.0, 0.0, rxn, grid, 40)
    assert err.value.step == expected == 13
    assert f"step {expected}" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_non_finite_state_trips_at_its_step(bad):
    # U is 1, 10, 100, 1000 after steps 0..3; step 4 sees U > 100 and adds bad
    U, V, rxn, grid = _uniform_growth(lambda U, V: np.where(U > 100.0, bad, 9.0 * U))
    with pytest.raises(DivergenceError, match="non-finite") as err:
        solve_two_component(U, V, 2e-3, 1e-3, rxn, grid, 10)
    assert err.value.step == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_diffusion_trips_before_overflow():
    grid = make_grid(16, 0.1, 1.0, extend(), ndim=2)     # k D/h**2 = 10: far past the limit
    rng = np.random.default_rng(5)
    null = TwoComponentReaction("null", lambda U, V: 0.0 * U, lambda U, V: 0.0 * V)
    with pytest.raises(DivergenceError, match="exceeded") as err:
        solve_two_component(rng.random(grid.shape), rng.random(grid.shape), 0.1, 0.1,
                            null, grid, 1000)
    assert 1 < err.value.step < 1000


def test_inputs_validated_before_stepping():
    grid = make_grid(5, 1.0, 0.1, periodic(), ndim=2)
    rxn = gray_scott(0.04, 0.06)
    U = np.ones(grid.shape)
    with pytest.raises(ValueError, match="2D grid"):
        solve_two_component(np.ones(5), np.ones(5), 0.1, 0.1, rxn,
                            make_grid(5, 1.0, 0.1, periodic()), 3)
    with pytest.raises(ValueError, match="shaped to the grid"):
        solve_two_component(U, np.ones((5, 4)), 0.1, 0.1, rxn, grid, 3)
    with pytest.raises(ValueError, match="finite"):
        step_two_component(U, np.full(grid.shape, np.nan), 0.1, 0.1, rxn, grid)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("channel", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_diffusivity_is_refused_before_stepping(channel, bad):
    grid, U, V, Du, Dv, rxn = _case(6, 6, periodic())
    D = [Du, Dv]
    D[channel] = bad
    with pytest.raises(ValueError, match="Du and Dv must be finite"):
        solve_two_component(U, V, *D, rxn, grid, 3)


@settings(max_examples=200)
@given(size=st.integers(1, 5000), data=st.data())
def test_aligned_buffer_puts_its_lead_cell_on_a_cache_line(size, data):
    lead = data.draw(st.integers(0, size - 1))
    buf = solver._aligned(size, lead)
    assert buf.shape == (size,) and buf.dtype == float and buf.flags.c_contiguous
    assert buf[lead:].ctypes.data % 64 == 0
    assert not buf.any()


@pytest.mark.parametrize("n", [3, 8, 128])
def test_every_pass_of_the_step_stores_from_a_cache_line(monkeypatch, n):
    # a misaligned vector store splits across two cache lines: this pins the
    # first cell each pass of one step writes to a 64-byte boundary
    aligned, laplacian = solver._aligned, solver._laplacian_2d
    made, first = [], {}

    def recording_aligned(size, lead=0):
        made.append(aligned(size, lead))
        return made[-1]

    def recording_laplacian(P, S, stencil2d):
        lap = laplacian(P, S, stencil2d)
        first["x pass, S[1]"] = S[1:]
        first["y pass, p[m]"] = P.reshape(-1)[P.shape[-1]:]

        def recorded(centre, out=None):
            first["T"] = out
            return lap(centre, out)

        return recorded

    gs = gray_scott(0.04, 0.06)

    def fused(U, V, out, scratch):
        first["kinetics"], first["plane"] = out, scratch
        gs.fused(U, V, out, scratch)

    monkeypatch.setattr(solver, "_aligned", recording_aligned)
    monkeypatch.setattr(solver, "_laplacian_2d", recording_laplacian)
    grid = make_grid(n, 1.0, 0.1, periodic(), ndim=2)
    rxn = TwoComponentReaction(gs.name, gs.f, gs.g, fused)
    W, step = solver._two_component_stepper(np.ones(grid.shape), np.zeros(grid.shape),
                                            0.1, 0.05, rxn, grid)
    first["W"] = step(W)
    assert len(first) == 6
    for name, buf in first.items():
        assert buf.ctypes.data % 64 == 0, name
        assert any(np.shares_memory(buf, b) for b in made), name


# sha256 of U.tobytes() + V.tobytes() after the solve below, taken when no store
# of the step was 64-byte aligned: a change of buffer layout keeps these bytes
@pytest.mark.parametrize("bc, digest", [
    (periodic(), "80cb03dc9a62b8116b59901763d419a3b4aae1e45017644aba51037ccf38ff8e"),
    (mirror(), "b67140d0316cd5a4ae2639e2b1321215f9f4eab49e0f636b7bdf66f3fd4e11d6"),
    (extend(), "b52dc4251857b9ef4375c0ae702c272c6e7deff8a5c16a21cb27a6760d1234f8"),
    (dirichlet(0.0), "0b5909314ad7714f1aaf885e4e71ca417022a867de93898012627527c6dbe68d"),
    (dirichlet(0.7), "94d18e898a33f5a6c998c6ff5440a42b76b079fe7d2e7099cc1c674f7ed9f06c"),
], ids=["periodic", "mirror", "extend", "dirichlet-0", "dirichlet-0.7"])
def test_solve_keeps_its_pinned_bytes(bc, digest):
    # elementwise + and * are correctly rounded, so the digest holds on any SIMD width
    rng = np.random.default_rng(20)
    grid = make_grid(16, 1.0, 0.2, bc, ndim=2)
    U, V = rng.uniform(0.0, 1.0, (2, 16, 16))
    U, V, _ = solve_two_component(U, V, 1.0, 0.5, gray_scott(0.04, 0.06), grid, 20)
    assert hashlib.sha256(U.tobytes() + V.tobytes()).hexdigest() == digest
