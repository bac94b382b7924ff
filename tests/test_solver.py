import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

import npde.grid
import npde.solver
import npde.stencil

from npde.grid import dirichlet, extend, make_grid, mirror, periodic
from npde.reactions import (TwoComponentReaction, fisher, gray_scott, linear, no_reaction,
                            sigmoid_reaction, source)
from npde.solver import (_TAIL, DIVERGENCE_FACTOR, CflReport, DivergenceError,
                         _march, _TridiagonalFactor, cfl_check, forward_slices, solve_forward,
                         solve_two_component, step_explicit, step_implicit,
                         step_two_component, thomas_solve)
from npde.stencil import EllipticCoefficients, elliptic_apply

EPS = np.finfo(float).eps


def test_explicit_hand_example():
    grid = make_grid(3, 1.0, 0.25, dirichlet(0.0))
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    out = step_explicit(np.array([0.0, 1.0, 0.0]), coeffs, grid)
    np.testing.assert_allclose(out, [0.25, 0.5, 0.25], rtol=0, atol=1e-15)


def test_explicit_identity_when_dynamics_vanish():
    grid = make_grid(5, 1.0, 0.25, periodic())
    coeffs = EllipticCoefficients.constant(grid, 0.0)
    u = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    np.testing.assert_array_equal(step_explicit(u, coeffs, grid), u)


def test_fisher_fixed_point_at_zero():
    grid = make_grid(5, 1.0, 0.25, periodic())
    coeffs = EllipticCoefficients.constant(grid, 0.0, reaction=fisher(1.0))
    np.testing.assert_array_equal(step_explicit(np.zeros(5), coeffs, grid),
                                  np.zeros(5))


def test_implicit_identity_when_a_zero():
    grid = make_grid(5, 1.0, 0.25, dirichlet(0.0))
    coeffs = EllipticCoefficients.constant(grid, 0.0)
    u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(step_implicit(u, coeffs, grid), u, rtol=1e-14)


def test_implicit_3x3_system_oracle():
    grid = make_grid(3, 1.0, 0.25, dirichlet(0.0))
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    u = np.array([0.0, 1.0, 0.0])
    M = np.array([[1.5, -0.25, 0.0], [-0.25, 1.5, -0.25], [0.0, -0.25, 1.5]])
    np.testing.assert_allclose(step_implicit(u, coeffs, grid),
                               np.linalg.solve(M, u), rtol=1e-13)


@pytest.mark.parametrize("bc", [dirichlet(0.0), dirichlet(1.5), periodic(),
                                mirror(), extend()])
def test_implicit_residual_recovers_input(bc):
    # substituting the output into the backward recurrence recovers the rhs
    rng = np.random.default_rng(8)
    n = 12
    grid = make_grid(n, 0.5, 0.3, bc)
    A = rng.uniform(0.0, 2.0, n)
    coeffs = EllipticCoefficients(A)
    u = rng.standard_normal(n)
    out = step_implicit(u, coeffs, grid)
    # residual check through the explicit operator: u' - k*diff(u') == u
    from npde.stencil import diffusion_term
    back = out - grid.k * diffusion_term(out, A, grid)
    np.testing.assert_allclose(back, u, rtol=0, atol=1e-10)


def test_singular_tridiagonal_reported():
    # a crafted negative A zeroes the pivot: 1 + 2 r A_j = 0
    grid = make_grid(3, 1.0, 1.0, dirichlet(0.0))
    A = np.full(3, -0.5)
    with pytest.raises(ValueError, match="singular"):
        step_implicit(np.ones(3), EllipticCoefficients(A), grid)


@pytest.mark.parametrize("n", [8, 10, 64, 400])
def test_singular_periodic_implicit_reported(n):
    # A = -1/(4r) on an even periodic grid: the matrix is exactly singular and the
    # Sherman-Morrison denominator is rounding noise (1e-16) on an exact 0
    grid = make_grid(n, 1.0, 1.0, periodic())
    coeffs = EllipticCoefficients(np.full(n, -0.25))
    with pytest.raises(ValueError, match="singular"):
        step_implicit(np.ones(n), coeffs, grid)
    with pytest.raises(ValueError, match="singular"):
        solve_forward(np.ones(n), coeffs, grid, 3, scheme="implicit")


@pytest.mark.parametrize("n", [_TAIL + 1, 2 * _TAIL + 1, 4 * _TAIL + 1, 600])
def test_zero_pivot_below_the_tail_cut_reported(n):
    # the row that is index 0 of the first reduced system of at most _TAIL rows is
    # eliminated only below the cut; decoupled with a zero diagonal, its pivot is 0
    row, m = 0, n
    while m > _TAIL:
        row, m = 2 * row + 1, m // 2
    rng = np.random.default_rng(n)
    sub, sup = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    sub[row] = sup[row] = diag[row] = 0.0
    with pytest.raises(ValueError, match="singular"):
        _TridiagonalFactor(sub, diag, sup)


@pytest.mark.parametrize("bands,rhs", [
    ((np.zeros(4), np.ones(4), np.zeros(4)), np.ones(3)),
    ((np.zeros(4), np.ones(4), np.zeros(4)), np.ones(5)),
    ((np.zeros(4), np.ones(4), np.zeros(4)), np.ones((4, 1))),
    ((np.zeros(3), np.ones(4), np.zeros(4)), np.ones(4)),
    ((np.zeros(4), np.ones(4), np.zeros(5)), np.ones(4)),
    ((np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 2))), np.ones(4)),
    ((np.zeros(0), np.ones(0), np.zeros(0)), np.ones(0)),
])
def test_mismatched_band_lengths_rejected(bands, rhs):
    with pytest.raises(ValueError, match="of one length|the system has 4 rows"):
        thomas_solve(*bands, rhs)


def test_thomas_against_scipy_banded():
    rng = np.random.default_rng(9)
    n = 40
    sub = np.zeros(n)
    sup = np.zeros(n)
    diag = rng.uniform(2.0, 3.0, n)
    sub[1:] = rng.uniform(-1.0, 0.0, n - 1)
    sup[:-1] = rng.uniform(-1.0, 0.0, n - 1)
    rhs = rng.standard_normal(n)
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[2, :-1] = sub[1:]
    np.testing.assert_allclose(thomas_solve(sub, diag, sup, rhs),
                               solve_banded((1, 1), ab, rhs), rtol=1e-12)


def test_periodic_implicit_matches_dense_solve():
    rng = np.random.default_rng(10)
    n = 16
    grid = make_grid(n, 0.5, 0.4, periodic())
    A = rng.uniform(0.1, 2.0, n)
    coeffs = EllipticCoefficients(A)
    u = rng.standard_normal(n)
    r = grid.r
    M = np.zeros((n, n))
    for j in range(n):
        M[j, j] = 1.0 + 2.0 * r * A[j]
        M[j, (j - 1) % n] -= r * A[(j - 1) % n]
        M[j, (j + 1) % n] -= r * A[(j + 1) % n]
    np.testing.assert_allclose(step_implicit(u, coeffs, grid),
                               np.linalg.solve(M, u), rtol=1e-11, atol=1e-12)


# n = 1, 2, 3, every size up to 600, 2**k - 1, 2**k, 2**k + 1 among them, and sizes
# either side of the tail cut with one, two and three levels stored above it
SIZES = st.one_of(st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                   _TAIL - 1, _TAIL, _TAIL + 1, 2 * _TAIL - 1, 2 * _TAIL + 1,
                                   4 * _TAIL - 1, 4 * _TAIL + 1]),
                  st.integers(1, 600))
SEEDS = st.integers(0, 2**32 - 1)
BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)])


@settings(max_examples=150)
@given(n=SIZES, seed=SEEDS)
def test_cyclic_reduction_matches_dense_solve(n, seed):
    # column-dominant: |diag_j| exceeds the off-diagonal entries of column j
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    column = np.abs(np.append(sub[1:], 0.0)) + np.abs(np.insert(sup[:-1], 0, 0.0))
    diag = rng.choice([-1.0, 1.0], n) * (column + rng.uniform(0.05, 2.0, n))
    M = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    b1, b2 = rng.standard_normal(n), 1e6 * rng.standard_normal(n)
    # one factor serves every right-hand side; thomas_solve factors its own
    factor = _TridiagonalFactor(sub, diag, sup)
    for rhs, x in ((b1, factor.solve(b1)), (b2, factor.solve(b2)),
                   (b1, thomas_solve(sub, diag, sup, b1))):
        exact = np.linalg.solve(M, rhs)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


@settings(max_examples=80)
@given(n=SIZES.filter(lambda n: n >= 3), seed=SEEDS)
def test_periodic_implicit_matches_dense_cyclic_solve(n, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.001, 1.0)), periodic())
    A = rng.uniform(0.0, 2.0, n)
    u = rng.standard_normal(n)
    r = grid.r
    M = np.eye(n)
    for j in range(n):
        M[j, j] += 2.0 * r * A[j]
        M[j, (j - 1) % n] -= r * A[(j - 1) % n]
        M[j, (j + 1) % n] -= r * A[(j + 1) % n]
    exact = np.linalg.solve(M, u)
    out = step_implicit(u, EllipticCoefficients(A), grid)
    assert np.max(np.abs(out - exact)) <= 1e-12 * np.max(np.abs(exact))


@settings(max_examples=100)
@given(bc=BCS, n=st.integers(3, 40), m=st.integers(1, 6), seed=SEEDS,
       reaction=st.sampled_from([no_reaction(), fisher(0.8)]),
       case=st.sampled_from([("implicit", 1, "5pt"), ("explicit", 1, "5pt"),
                             ("explicit", 2, "5pt"), ("explicit", 2, "9pt")]))
def test_implicit_solve_equals_chained_steps(bc, n, m, seed, reaction, case):
    # every scheme: forward_slices' slices are chained step_* calls, bit for bit
    scheme, ndim, stencil2d = case
    rng = np.random.default_rng(seed)
    # explicit: r max A <= 1/4, so nothing diverges
    k = float(rng.uniform(0.01, 1.0) if scheme == "implicit" else rng.uniform(0.001, 0.03))
    grid = make_grid(n, 0.5, k, bc, ndim)
    B = rng.uniform(-1.0, 1.0, n) if scheme == "explicit" and ndim == 1 else None
    coeffs = EllipticCoefficients(rng.uniform(0.0, 2.0, grid.shape), B, reaction)
    u = rng.uniform(0.0, 1.0, grid.shape)
    slices = list(forward_slices(u, coeffs, grid, m, scheme=scheme, stencil2d=stencil2d))
    for s in slices[1:]:
        u = (step_implicit(u, coeffs, grid) if scheme == "implicit"
             else step_explicit(u, coeffs, grid, stencil2d))
        np.testing.assert_array_equal(s, u)


@settings(max_examples=80)
@given(bc=BCS, n=st.integers(3, 12), seed=SEEDS, stencil2d=st.sampled_from(["5pt", "9pt"]),
       reaction=st.sampled_from([no_reaction(), fisher(0.8), sigmoid_reaction(1.5),
                                 linear(-0.4)]))
def test_2d_explicit_step_is_the_divergence_form(bc, n, seed, stencil2d, reaction):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 0.5, float(rng.uniform(0.001, 0.05)), bc, ndim=2)
    coeffs = EllipticCoefficients(rng.uniform(0.0, 2.0, grid.shape), None, reaction)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    np.testing.assert_array_equal(step_explicit(u, coeffs, grid, stencil2d),
                                  u + grid.k * elliptic_apply(u, coeffs, grid, stencil2d))


@pytest.mark.parametrize("scheme,ndim,stencil2d", [
    ("explicit", 1, "5pt"), ("explicit", 2, "5pt"), ("explicit", 2, "9pt"),
    ("implicit", 1, "5pt")])
def test_solve_validates_and_pads_once(monkeypatch, scheme, ndim, stencil2d):
    # pad_coefficient reaches grid.pad; a solve's count must not grow with its steps
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    counted_pad = counted("pad", npde.grid.pad)
    for module in (npde.grid, npde.stencil, npde.solver):
        monkeypatch.setattr(module, "pad", counted_pad)
    monkeypatch.setattr(EllipticCoefficients, "validate_against",
                        counted("validate", EllipticCoefficients.validate_against))
    grid = make_grid(6, 0.5, 0.01, mirror(), ndim)
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(0.5))
    u = np.random.default_rng(3).uniform(0.0, 1.0, grid.shape)
    per_solve = []
    for n_steps in (1, 7):
        calls.clear()
        solve_forward(u, coeffs, grid, n_steps, scheme, stencil2d)
        per_solve.append(dict(calls))
    assert per_solve[0] == per_solve[1] == {"validate": 1, "pad": 1}


@pytest.mark.parametrize("scheme,ndim", [("explicit", 1), ("explicit", 2), ("implicit", 1)])
def test_unknown_stencil_refused_on_every_grid_and_scheme(scheme, ndim):
    grid = make_grid(6, 0.5, 0.01, periodic(), ndim)
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    u = np.ones(grid.shape)
    with pytest.raises(ValueError, match="unknown 2D stencil 'bogus'"):
        solve_forward(u, coeffs, grid, 2, scheme=scheme, stencil2d="bogus")
    if scheme == "explicit":
        with pytest.raises(ValueError, match="unknown 2D stencil 'bogus'"):
            step_explicit(u, coeffs, grid, "bogus")
        with pytest.raises(ValueError, match="unknown 2D stencil 'bogus'"):
            elliptic_apply(u, coeffs, grid, "bogus")


def test_two_component_null_dynamics():
    grid = make_grid(8, 0.5, 0.1, periodic(), ndim=2)
    rxn = TwoComponentReaction("null", lambda U, V: 0.0 * U, lambda U, V: 0.0 * V)
    rng = np.random.default_rng(11)
    U = rng.random((8, 8))
    V = rng.random((8, 8))
    U2, V2 = step_two_component(U, V, 0.0, 0.0, rxn, grid)
    np.testing.assert_array_equal(U2, U)
    np.testing.assert_array_equal(V2, V)


def test_gray_scott_uniform_fixed_point():
    grid = make_grid(8, 0.5, 0.1, periodic(), ndim=2)
    U = np.ones((8, 8))
    V = np.zeros((8, 8))
    U2, V2 = step_two_component(U, V, 1e-5, 5e-6, gray_scott(0.04, 0.06), grid)
    np.testing.assert_allclose(U2, U, atol=1e-15)
    np.testing.assert_allclose(V2, V, atol=1e-15)


def test_solve_forward_rejects_zero_steps():
    grid = make_grid(5, 1.0, 0.1, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    with pytest.raises(ValueError):
        solve_forward(np.zeros(5), coeffs, grid, 0)


def test_solve_forward_frozen_dynamics():
    grid = make_grid(5, 1.0, 0.1, periodic())
    coeffs = EllipticCoefficients.constant(grid, 0.0)
    u0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    slices = list(forward_slices(u0, coeffs, grid, 10))
    assert len(slices) == 11
    for s in slices:
        np.testing.assert_array_equal(s, u0)
    np.testing.assert_array_equal(solve_forward(u0, coeffs, grid, 10).final(), u0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=120)
@given(bc=BCS, n=st.integers(3, 20), m=st.integers(1, 9), seed=SEEDS,
       reaction=st.sampled_from(["none", "fisher", "sigmoid", "linear", "source"]),
       case=st.sampled_from([("explicit", 1, "5pt"), ("explicit", 2, "5pt"),
                             ("explicit", 2, "9pt"), ("implicit", 1, "5pt")]))
def test_solve_is_the_last_slice_of_its_stream(bc, n, m, seed, reaction, case):
    # solve_forward keeps forward_slices' last slice, bit for bit
    scheme, ndim, stencil2d = case
    rng = np.random.default_rng(seed)
    # r max A <= 1/4 and k C small, so no reaction diverges in m steps
    grid = make_grid(n, 0.5, float(rng.uniform(0.001, 0.03)), bc, ndim)
    C = {"none": no_reaction(), "fisher": fisher(0.8), "sigmoid": sigmoid_reaction(1.5),
         "linear": linear(-0.4), "source": source(rng.uniform(-1.0, 1.0, grid.shape))}
    B = rng.uniform(-1.0, 1.0, n) if scheme == "explicit" and ndim == 1 else None
    coeffs = EllipticCoefficients(rng.uniform(0.0, 2.0, grid.shape), B, C[reaction])
    u0 = rng.uniform(0.0, 1.0, grid.shape)
    want = list(forward_slices(u0, coeffs, grid, m, scheme, stencil2d))
    assert len(want) == m + 1
    before = _bits(u0).copy()
    traj = solve_forward(u0, coeffs, grid, m, scheme, stencil2d)
    np.testing.assert_array_equal(_bits(traj.final()), _bits(want[-1]))
    np.testing.assert_array_equal(_bits(u0), before)


@pytest.mark.parametrize("scheme,ndim", [("explicit", 1), ("explicit", 2), ("implicit", 1)])
def test_a_written_slice_changes_no_later_slice(scheme, ndim):
    # the 1D explicit state lives in two buffers that the steps write in turn:
    # a streamed slice is a copy, so the caller may keep or write it
    rng = np.random.default_rng(8)
    grid = make_grid(8, 0.5, 0.01, mirror(), ndim)
    coeffs = EllipticCoefficients(rng.uniform(0.5, 1.5, grid.shape), None, fisher(0.5))
    u0 = rng.uniform(0.0, 1.0, grid.shape)
    want = [_bits(s).copy() for s in forward_slices(u0, coeffs, grid, 6, scheme)]
    kept = []
    for s in forward_slices(u0, coeffs, grid, 6, scheme):
        kept.append(s)
        np.testing.assert_array_equal(_bits(s), want[len(kept) - 1])
        s[...] = np.nan
    assert all(np.isnan(s).all() for s in kept)
    assert len({id(s) for s in kept}) == len(kept)


@pytest.mark.parametrize("n", [3, 8, 17, 4000])
@pytest.mark.parametrize("bc", [periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)])
def test_every_store_of_the_1d_march_starts_on_a_cache_line(monkeypatch, n, bc):
    # a misaligned vector store splits across two cache lines: the two state
    # interiors and the pair form's centre scratch each start on a 64-byte
    # boundary, inside a buffer that _aligned made
    aligned, into = npde.stencil._aligned, npde.stencil._Step1D._into
    made, stores = [], []

    def recording_aligned(size, lead=0):
        made.append(aligned(size, lead))
        return made[-1]

    def recording_into(step, P, out=None):
        stores.append((out, step.centre))
        return into(step, P, out)

    for module in (npde.solver, npde.stencil):
        monkeypatch.setattr(module, "_aligned", recording_aligned)
    monkeypatch.setattr(npde.stencil._Step1D, "_into", recording_into)
    grid = make_grid(n, 0.1, 0.004, bc)
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(1.0))
    u0 = np.random.default_rng(n).uniform(0.0, 1.0, n)
    u, advance = npde.solver._stepper(u0, coeffs, grid, "explicit")
    states = [u, advance(u)]
    states.append(advance(states[-1]))
    assert states[2] is states[0] and states[1] is not states[0]
    assert len(stores) == 2 and all(centre is not None for _, centre in stores)
    for buf in [*states, *(b for pair in stores for b in pair)]:
        assert buf.ctypes.data % 64 == 0
        assert any(np.shares_memory(buf, b) for b in made)
    np.testing.assert_array_equal(states[0], solve_forward(u0, coeffs, grid, 2).final())


@pytest.mark.parametrize("scheme,ndim", [("explicit", 1), ("explicit", 2), ("implicit", 1)])
def test_stream_ignores_writes_after_it_is_built(scheme, ndim):
    # the step reads no array the caller keeps: A is copied (the 2D step
    # reads it every step) and a source field is the reaction's read-only copy
    rng = np.random.default_rng(5)
    grid = make_grid(8, 0.5, 0.01, periodic(), ndim)
    A, forcing = rng.uniform(0.5, 1.5, grid.shape), rng.uniform(-1.0, 1.0, grid.shape)
    coeffs = EllipticCoefficients(A, None, source(forcing))
    u0 = rng.uniform(0.0, 1.0, grid.shape)
    want = [_bits(s) for s in forward_slices(u0, coeffs, grid, 6, scheme)]
    stream = forward_slices(u0, coeffs, grid, 6, scheme)
    A *= 3.0
    forcing[...] = 0.0
    for got, expected in zip(stream, want, strict=True):
        np.testing.assert_array_equal(_bits(got), expected)
    # a new solve reads the written A; nothing writes the reaction's field
    assert not np.array_equal(solve_forward(u0, coeffs, grid, 6, scheme).final(),
                              want[-1].view(float))
    with pytest.raises(ValueError, match="read-only"):
        coeffs.C.source[0] = 1.0


def test_cfl_check_examples():
    grid = make_grid(5, 1.0, 0.25, periodic())
    assert cfl_check(EllipticCoefficients.constant(grid, 1.0), grid) == \
        CflReport(True, 0.25, 0.5)
    grid = make_grid(5, 1.0, 0.6, periodic())
    rep = cfl_check(EllipticCoefficients.constant(grid, 1.0), grid)
    assert not rep.stable and rep.max_r_a == pytest.approx(0.6)
    grid = make_grid(5, 1.0, 0.3, periodic())
    A = np.array([0.5, 1.0, 2.0, 1.0, 0.5])
    rep = cfl_check(EllipticCoefficients(A), grid)
    assert not rep.stable and rep.max_r_a == pytest.approx(0.6)


def test_cfl_flags_anti_diffusion():
    grid = make_grid(5, 1.0, 0.4, periodic())
    rep = cfl_check(EllipticCoefficients.constant(grid, -0.5), grid)
    assert not rep.stable and rep.max_r_a == pytest.approx(-0.2)
    grid = make_grid(5, 1.0, 0.1, periodic(), ndim=2)
    assert not cfl_check(EllipticCoefficients.constant(grid, -0.5), grid).stable


def test_cfl_flags_cell_peclet_violation_that_diverges():
    # r * A = 0.004 is far inside 1/2, but |B| h = 5 > 2 A turns a side tap negative
    grid = make_grid(64, 1.0, 0.4, periodic())
    coeffs = EllipticCoefficients(np.full(64, 0.01), np.full(64, 5.0))
    rep = cfl_check(coeffs, grid)
    assert not rep.stable and rep.max_r_a == pytest.approx(0.004)
    u0 = np.zeros(64)
    u0[32] = 1.0
    with pytest.raises(DivergenceError) as err:
        solve_forward(u0, coeffs, grid, 200)
    assert err.value.step == 38
    # enough diffusion (|B| h <= 2 A) and a small enough r make it monotone again
    grid = make_grid(64, 1.0, 0.1, periodic())
    assert cfl_check(EllipticCoefficients(np.full(64, 3.0), np.full(64, 5.0)), grid).stable


def test_cfl_limit_tighter_in_2d():
    grid = make_grid(5, 1.0, 0.3, periodic(), ndim=2)
    rep = cfl_check(EllipticCoefficients.constant(grid, 1.0), grid)
    assert rep.limit == 0.25 and not rep.stable


def test_mass_conservation_varying_a():
    rng = np.random.default_rng(12)
    n = 64
    A = rng.uniform(0.1, 1.0, n)
    grid = make_grid(n, 1.0, 0.4 / float(A.max()), periodic())
    coeffs = EllipticCoefficients(A)
    u = rng.uniform(0.5, 1.5, n)
    total0 = u.sum()
    for _ in range(200):
        u = step_explicit(u, coeffs, grid)
        assert abs(u.sum() - total0) / abs(total0) <= 1e-10


def test_maximum_principle_constant_a():
    rng = np.random.default_rng(13)
    grid = make_grid(32, 1.0, 0.45, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    u = rng.uniform(-1.0, 2.0, 32)
    lo, hi = u.min(), u.max()
    for _ in range(50):
        u = step_explicit(u, coeffs, grid)
        assert u.max() <= hi + 1e-14 and u.min() >= lo - 1e-14


def test_explicit_implicit_agree_to_second_order():
    # |explicit - implicit| = O(k^2): halving k quarters the gap
    n = 32
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    u = np.sin(x)
    gaps = []
    for k in (0.1, 0.05, 0.025):
        grid = make_grid(n, 2 * np.pi / n, k, periodic())
        coeffs = EllipticCoefficients.constant(grid, 0.3)
        gap = np.max(np.abs(step_explicit(u, coeffs, grid)
                            - step_implicit(u, coeffs, grid)))
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.8)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, abs=0.8)


def test_fisher_invariant_region():
    rng = np.random.default_rng(14)
    rate = 1.0
    grid = make_grid(32, 1.0, 0.4, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(rate))
    u = rng.uniform(0.0, 1.0, 32)
    bound = 1.0 + grid.k * rate / 4.0
    for _ in range(100):
        u = step_explicit(u, coeffs, grid)
        assert u.min() >= -1e-14 and u.max() <= bound + 1e-14


def test_implicit_unconditionally_stable_at_r5():
    grid = make_grid(32, 1.0, 5.0, dirichlet(0.0))
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    rng = np.random.default_rng(15)
    u0 = rng.uniform(0.0, 1.0, 32)
    slices = list(forward_slices(u0, coeffs, grid, 100, scheme="implicit"))
    assert max(np.max(np.abs(s)) for s in slices) <= np.max(np.abs(u0)) + 1e-12


def test_divergence_reports_step_index():
    grid = make_grid(32, 1.0, 0.6, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    u0 = np.zeros(32)
    u0[16] = 1.0
    with pytest.raises(DivergenceError) as err:
        solve_forward(u0, coeffs, grid, 500)
    assert err.value.step is not None and 0 < err.value.step <= 200


def test_explicit_step_reports_nonfinite():
    grid = make_grid(5, 1.0, 0.25, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1e308)
    u = np.array([0.0, 1e308, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            step_explicit(u, coeffs, grid)
        # an infinite input sets no infinite bound
        u[1] = np.inf
        with pytest.raises(DivergenceError, match="non-finite") as err:
            solve_forward(u, EllipticCoefficients.constant(grid, 1.0), grid, 3)
        assert err.value.step == 1


def test_explicit_step_diverges_as_a_one_step_solve():
    # max|u| = 2e13 is finite but beyond the solve's bound 1e12 * (1 + max|u0|)
    grid = make_grid(8, 1.0, 1.0, periodic())
    coeffs = EllipticCoefficients.constant(grid, 1e13)
    u = np.zeros(8)
    u[4] = 1.0
    for single in (lambda: step_explicit(u, coeffs, grid),
                   lambda: solve_forward(u, coeffs, grid, 1)):
        with pytest.raises(DivergenceError, match="step 1 produced magnitude 2.000e") as err:
            single()
        assert err.value.step == 1


class _CountedMax(np.ndarray):
    """A field that counts the max/min reductions run on it."""

    reductions = 0

    def max(self, *args, **kwargs):
        _CountedMax.reductions += 1
        return super().max(*args, **kwargs)


def _max_min_verdict(u0, fields, label):
    """The max|u| rule alone: (message, step) of the first divergent field, or None."""
    bound = min(DIVERGENCE_FACTOR * (1.0 + float(max(u0.max(), -u0.min()))),
                np.finfo(float).max)
    for step, u in enumerate(fields, start=1):
        biggest = float(max(np.asarray(u).max(), -np.asarray(u).min()))
        if not biggest <= bound:
            what = (f"magnitude {biggest:.3e} exceeded {bound:.3e}"
                    if np.isfinite(biggest) else "non-finite values")
            return f"{label} step {step} produced {what}", step
    return None


@settings(max_examples=300)
@given(data=st.data(), shape=st.sampled_from([(1,), (9,), (2, 3, 3)]),
       scale=st.sampled_from([0.0, 1e-300, 1.0, 7.5, 1e5, 1e141, 1e150, 1e300]),
       n_steps=st.integers(1, 4))
def test_march_one_dot_bound_gives_the_max_min_verdict(data, shape, scale, n_steps):
    u0 = np.full(shape, -scale)
    bound = min(DIVERGENCE_FACTOR * (1.0 + scale), np.finfo(float).max)
    with np.errstate(over="ignore"):
        near = [bound * (1.0 + j * EPS) for j in range(-4, 5)] + [0.9 * bound, 0.5 * bound]
    entries = st.one_of(st.floats(-1.0, 1.0).map(lambda x: x * bound),
                        st.sampled_from([np.nan, np.inf, -np.inf] + near + [-x for x in near]))
    size = int(np.prod(shape))
    fields = [np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
              .reshape(shape).view(_CountedMax) for _ in range(n_steps)]
    expected = _max_min_verdict(u0, fields, "probe")
    steps = iter(fields)
    _CountedMax.reductions = 0
    passed, got = [], None
    try:
        for u in _march(u0, lambda _: next(steps), n_steps, "probe"):
            passed.append(u)
    except DivergenceError as err:
        got = (str(err), err.step)
    assert got == expected
    assert len(passed) == (n_steps if expected is None else expected[1] - 1)
    if scale >= 1e150:      # the squared bound overflows: every field is reduced
        assert _CountedMax.reductions == len(passed) + (got is not None)
    # comfortably inside the bound, a field passes on its dot product alone
    if scale <= 1e141 and all(np.sum(np.square(np.asarray(f))) <= 0.5 * bound**2
                              for f in fields):
        assert _CountedMax.reductions == 0


def test_solve_two_component_frames():
    grid = make_grid(16, 0.1, 0.5, periodic(), ndim=2)
    rng = np.random.default_rng(16)
    U = np.ones((16, 16)) + 0.01 * rng.random((16, 16))
    V = 0.1 * rng.random((16, 16))
    _, _, frames = solve_two_component(U, V, 2e-5, 1e-5, gray_scott(0.04, 0.06),
                                       grid, 10, record_every=2)
    assert len(frames) == 5
