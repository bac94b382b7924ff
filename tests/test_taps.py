"""Properties of the one 1D step operator: the per-node taps.

The ghost fill pads like np.pad and the ghost scatter is its adjoint; the
taps step equals the divergence-form step u + k * elliptic_apply(u) to
rounding; the step that runs (reaction folded, scalar taps for a uniform
medium) is the unfolded row step to rounding, and bit for bit when nothing
folds; a uniform, symmetric fisher step runs the pair form, and the steps
that keep the tap form keep their bytes; the dense band is the step's matrix;
the implicit bands solve the backward step; the step's VJPs are the adjoints
of the step and of its taps.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde.blocks import gen_conv1d, gen_rbm
from npde.cli import main
from npde.grid import (_ghost_fill, _ghost_scatter, dirichlet, extend, make_grid,
                       mirror, periodic)
from npde.reactions import (ReactionSpec, fisher, linear, no_reaction, sigmoid,
                            sigmoid_reaction)
from npde.solver import (DivergenceError, cfl_check, forward_slices, solve_forward,
                         step_explicit, step_implicit)
from npde.stencil import (EllipticCoefficients, _apply_taps, _band_matrix, _Step1D,
                          _step_taps, _step_taps_vjp, _tap_step_vjp, diffusion_term,
                          elliptic_apply)
from npde.train import DiffusionLayer

BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)])
SEEDS = st.integers(0, 2**32 - 1)
REACTIONS = st.sampled_from([no_reaction(), fisher(0.8), sigmoid_reaction(1.5), linear(-0.4)])
EPS = np.finfo(float).eps


def _fill(u, bc):
    P = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    P[..., 1:-1] = u
    return _ghost_fill(P, bc)


def _case(seed, bc, with_b, uniform=False, reaction=no_reaction()):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    grid = make_grid(n, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.001, 0.1)), bc)
    size = 1 if uniform else n
    A = np.resize(rng.uniform(0.0, 1.0, size), n)
    B = np.resize(rng.uniform(-2.0, 2.0, size), n) if with_b else None
    return rng, grid, EllipticCoefficients(A, B, reaction)


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


@settings(max_examples=150)
@given(seed=SEEDS, bc=BCS, with_b=st.booleans(), n_steps=st.integers(1, 6),
       uniform=st.booleans(), reaction=REACTIONS)
def test_block_and_solver_share_one_kernel(seed, bc, with_b, n_steps, uniform, reaction):
    rng, grid, coeffs = _case(seed, bc, with_b, uniform, reaction)
    u = rng.standard_normal(grid.n_points)
    block = gen_conv1d(coeffs, grid)
    # a uniform medium steps with three scalar taps, any other with the rows
    assert isinstance(block._step.taps, tuple) == uniform
    solved = []
    try:
        solved.extend(forward_slices(u, coeffs, grid, n_steps))
    except DivergenceError:     # fisher's u**2 can run away on a grid with r A > 1/2
        pass
    x = u
    for want in solved[1:]:
        x = block.forward(x)
        assert float(np.max(np.abs(x - want))) == 0.0

    # the step that runs, against the unfolded row step taps apply + k C(u)
    taps = _step_taps(coeffs.A, coeffs.B, grid)
    P = _fill(u, bc)
    unfolded = _apply_taps(taps, P)
    if reaction.kind != "none":
        unfolded += grid.k * reaction(u)
    ran = block.forward(u)
    folded = reaction.split(grid.k)[0]       # k l, added to the centre tap
    if folded == 0.0:
        np.testing.assert_array_equal(ran.view(np.int64), unfolded.view(np.int64))
    else:
        # each side rounds its sum of products within 2 eps of sum|taps| max|P|,
        # and its reaction within 2 eps of k (|l u| + |C(u)|); l u is counted
        # apart because fisher's C vanishes at u = 1 where r u does not
        weight = float(np.max(np.abs(taps).sum(axis=0))) + abs(folded)
        c = float(np.max(np.abs(reaction(u))))
        tol = 4.0 * EPS * (weight * float(np.max(np.abs(P))) + grid.k * c)
        assert float(np.max(np.abs(ran - unfolded))) <= tol


@settings(max_examples=200)
@given(seed=SEEDS, bc=BCS, batch=st.integers(1, 3), kind=st.sampled_from(["fisher", "linear"]),
       draw=st.sampled_from(["unit", "normal", "log-uniform"]))
def test_pair_form_is_within_the_unfolded_bound(seed, bc, batch, kind, draw):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    grid = make_grid(n, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.001, 0.1)), bc)
    taps = _step_taps(np.full(n, rng.uniform(0.0, 0.5) / grid.r), None, grid)   # r A <= 1/2
    reaction = ReactionSpec(kind, float(rng.uniform(-5.0, 5.0)))
    shape = (batch, n)
    # log-uniform down to 1e-320 covers the subnormal band ahead of a front
    u = {"unit": lambda: rng.uniform(0.0, 1.0, shape),
         "normal": lambda: rng.standard_normal(shape),
         "log-uniform": lambda: 10.0 ** rng.uniform(-320.0, 0.0, shape)}[draw]()
    step = _Step1D(taps, grid, reaction)
    assert step.pair is (kind == "fisher")   # linear has no q and keeps the tap form
    P = np.empty((batch, n + 2))
    ran = step(u, P)
    unfolded = _apply_taps(taps, P) + grid.k * reaction(u)
    # the documented bound: test_block_and_solver_share_one_kernel's, plus the
    # absolute error that gradual underflow adds to each of the at most ten
    # products the two sides make, half the smallest subnormal each (Higham,
    # Accuracy and Stability, sec. 2.1); without it an all-subnormal row can
    # miss the bound
    weight = float(np.max(np.abs(taps).sum(axis=0))) + abs(reaction.split(grid.k)[0])
    c = float(np.max(np.abs(reaction(u))))
    tol = 4.0 * EPS * (weight * float(np.max(np.abs(P))) + grid.k * c)
    tol += 5.0 * np.finfo(float).smallest_subnormal
    assert float(np.max(np.abs(ran - unfolded))) <= tol


@pytest.mark.parametrize("bc", [periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(-1.3)])
def test_criterion_3_steps_in_the_pair_form(monkeypatch, bc):
    # criterion 3's medium (h = 0.1, k = 0.004, A = 1, fisher(1)) on a short grid
    grid = make_grid(64, 0.1, 0.004, bc)
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(1.0))
    A = coeffs.A
    u = np.random.default_rng(3).uniform(0.0, 1.0, 64)

    def run():
        block = gen_conv1d(coeffs, grid)
        layer_out, _ = DiffusionLayer(grid, 5, fisher(1.0)).forward({"A": A}, u[None])
        return [*forward_slices(u, coeffs, grid, 5), block.forward(u), layer_out[0]]

    before = run()

    def refuse(v):
        raise AssertionError("a pair-form step evaluated fisher's R")

    split = ReactionSpec.split

    def split_refusing_rest(self, k):
        linear, _, slope, q = split(self, k)
        return linear, refuse, slope, q

    # every step takes its k R(u) from split; the pair form must not call it
    monkeypatch.setattr(ReactionSpec, "split", split_refusing_rest)
    for got, want in zip(run(), before, strict=True):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    rows = EllipticCoefficients(np.linspace(0.5, 1.0, 64), None, fisher(1.0))
    with pytest.raises(AssertionError, match="evaluated fisher's R"):
        gen_conv1d(rows, grid).forward(u)


def test_tap_form_steps_keep_their_bytes(tmp_path):
    # heat through `npde solve`: the SHA-256 of its trajectory, taken before
    # the pair form was added (adds and multiplies only, so it is portable)
    config = {
        "grid": {"n_points": 64, "h": 0.05, "k": 0.000625, "bc": "periodic"},
        "model": {"kind": "heat", "A": 1.0},
        "run": {"n_steps": 40, "scheme": "explicit", "seed": 0,
                "initial": {"kind": "gaussian", "amplitude": 1.0, "center": 1.6,
                            "sigma2": 0.1}},
    }
    path = tmp_path / "heat.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    csv = (tmp_path / "out" / "trajectory.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "5ae5e7ec3e6a728d7ecbe94f3948c18eff5c5b9418cc4eb38205328e35d739d1")

    # a uniform sigmoid solve against the tap form run step by step: scalar
    # taps applied to the padded field, plus k sigmoid(r u) (np.exp's last bit
    # may vary across CPUs, so no digest)
    grid = make_grid(64, 0.1, 0.004, extend())
    u = np.random.default_rng(7).uniform(-1.0, 1.0, 64)
    coeffs = EllipticCoefficients.constant(grid, 0.9, reaction=sigmoid_reaction(1.5))
    final = solve_forward(u, coeffs, grid, 50).final()
    taps = tuple(float(row[0]) for row in _step_taps(coeffs.A, None, grid))
    P = np.empty(66)
    for _ in range(50):
        P[1:-1] = u
        u = _apply_taps(taps, _ghost_fill(P, grid.bc)) + grid.k * sigmoid(1.5 * u)
    np.testing.assert_array_equal(final.view(np.int64), u.view(np.int64))


@settings(max_examples=60)
@given(seed=SEEDS, bc=BCS)
def test_dense_band_columns_are_unit_vector_steps(np_pad, stencil_taps, seed, bc):
    rng, grid, coeffs = _case(seed, bc, False)
    n = grid.n_points
    diffusion = EllipticCoefficients(coeffs.A)
    W = gen_rbm(diffusion, grid).W
    L = _band_matrix(np.broadcast_to([[1.0], [-2.0], [1.0]], (3, n)) / grid.h**2, bc)
    step_offset = step_explicit(np.zeros(n), diffusion, grid)

    def stencil(f):
        return np.correlate(np_pad(f, bc), stencil_taps["3pt"] / grid.h**2, "valid")

    stencil_offset = stencil(np.zeros(n))
    # the dirichlet offset cancels in the subtraction to within the rounding
    # of a sum of the ghost term and a tap
    g = 1.0 + abs(bc.value)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        np.testing.assert_allclose(W[:, j], step_explicit(e, diffusion, grid) - step_offset,
                                   rtol=0, atol=4 * EPS * g * np.max(np.abs(W)))
        np.testing.assert_allclose(L[:, j], stencil(e) - stencil_offset,
                                   rtol=0, atol=4 * EPS * g * np.max(np.abs(L)))


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


@settings(max_examples=150)
@given(seed=SEEDS, bc=BCS, n=st.integers(3, 12), batch=st.integers(1, 3),
       with_b=st.booleans(), uniform=st.booleans(), reaction=REACTIONS)
def test_step_vjp_is_the_adjoint_of_the_step_and_its_taps(seed, bc, n, batch, with_b,
                                                          uniform, reaction):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.001, 0.1)), bc)
    size = 1 if uniform else n
    A = np.resize(rng.uniform(0.0, 1.0, size), n)
    B = np.resize(rng.uniform(-2.0, 2.0, size), n) if with_b else None
    taps = _step_taps(A, B, grid)
    step = _Step1D(taps, grid, reaction)
    u, g = rng.uniform(-1.0, 1.0, (batch, n)), rng.standard_normal((batch, n))
    P = np.empty((batch, n + 2))
    step(u, P)
    g_u, g_taps = _tap_step_vjp(step, P, g)

    # u's cotangent: with nothing left pointwise (none, and linear folded into
    # the centre) the transposed band of the folded taps, else a central
    # difference of the step
    if step.rest is None:
        folded = taps.copy()
        folded[1] += reaction.split(grid.k)[0]
        M = _band_matrix(folded, bc)
        for got, row in zip(g_u, g):
            scale = float(np.max(np.abs(M.T) @ np.abs(row)))
            assert float(np.max(np.abs(got - M.T @ row))) <= 1e-13 * scale
    else:
        eps = 1e-6
        fd = np.empty_like(u)
        for index in np.ndindex(*u.shape):
            e = np.zeros_like(u)
            e[index] = eps
            fd[index] = np.vdot(g, step(u + e, P) - step(u - e, P)) / (2.0 * eps)
        scale = float(np.max(np.abs(g_u)))
        assert float(np.max(np.abs(g_u - fd))) <= 1e-7 * max(scale, 1.0)

    # the taps' cotangent, against the tap apply on P as the step at u filled it
    step(u, P)
    delta = rng.standard_normal((3, n))
    lhs = float(np.vdot(g, _apply_taps(delta, P)))
    rhs = float(np.vdot(g_taps, delta))
    products = float(np.vdot(np.abs(g), _apply_taps(np.abs(delta), np.abs(P))))
    assert abs(lhs - rhs) <= 4 * (3 * batch + 2) * EPS * products

    # A's cotangent: _step_taps is affine in A, so its central difference is exact
    # up to rounding
    a, eps = rng.standard_normal(n), 1e-3
    plus, minus = _step_taps(A + eps * a, B, grid), _step_taps(A - eps * a, B, grid)
    fd = float(np.vdot(g_taps, plus - minus)) / (2.0 * eps)
    g_a = _step_taps_vjp(g_taps, grid)
    rounding = float(np.vdot(np.abs(g_taps), np.abs(plus) + np.abs(minus))) / (2.0 * eps)
    assert abs(fd - float(np.vdot(g_a, a))) <= 64 * n * EPS * rounding


@pytest.mark.parametrize("reaction", [fisher(0.8), linear(-0.4)])
@pytest.mark.parametrize("uniform", [True, False])
def test_folded_steps_never_evaluate_the_reaction(monkeypatch, reaction, uniform):
    grid = make_grid(16, 0.5, 0.01, extend())
    rng = np.random.default_rng(11)
    A = np.full(16, 0.7) if uniform else rng.uniform(0.2, 1.0, 16)
    coeffs = EllipticCoefficients(A, None, reaction)
    u = rng.uniform(0.0, 1.0, 16)
    # built before the patch: the solve's step, the block and the layer's forward
    slices, block = forward_slices(u, coeffs, grid, 5), gen_conv1d(coeffs, grid)
    layer = DiffusionLayer(grid, 5, reaction)

    def refuse(self, v):
        raise AssertionError("a folded 1D step evaluated C(u)")

    monkeypatch.setattr(ReactionSpec, "__call__", refuse)
    final = list(slices)[-1]
    x = u
    for _ in range(5):
        x = block.forward(x)
    assert float(np.max(np.abs(x - final))) == 0.0
    out, _ = layer.forward({"A": A}, u[None])
    assert float(np.max(np.abs(out[0] - final))) == 0.0


@settings(max_examples=100)
@given(seed=SEEDS, bc=BCS, rate=st.floats(-50.0, 50.0), a0=st.sampled_from([2.0, 2.5]),
       kind=st.sampled_from(["fisher", "linear"]))
def test_cfl_verdict_reads_the_unfolded_taps(seed, bc, rate, a0, kind):
    # r = 1/4 and A <= 2 away from node 0, whose centre tap 1 - A_0 / 2 is 0
    # (stable) or -1/4 (unstable); folded, k * rate would move it across 0
    grid = make_grid(8, 1.0, 0.25, bc)
    A = np.random.default_rng(seed).uniform(0.0, 2.0, 8)
    A[0] = a0
    reacting = EllipticCoefficients(A, None, ReactionSpec(kind, rate))
    assert cfl_check(reacting, grid).stable == (a0 == 2.0)
