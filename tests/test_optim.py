import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde.optim import (AdamState, LBFGSState, LossSpec, ThetaVector, adam_step,
                        gauss_newton_step, grad_fd, lbfgs_direction, lbfgs_update,
                        newton_pinv_step, sgd_step)
from npde.reactions import no_reaction
from npde.train import Pipeline


# --- losses -----------------------------------------------------------------

def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(nu=-0.1)


# each guard reads "not x > 0", so NaN fails it, and names its parameter
_REFUSED = {
    "LossSpec nu": (lambda: LossSpec(nu=np.nan), "weight decay nu"),
    "AdamState eps": (lambda: AdamState.fresh(3, eps=np.nan), "eps"),
    "sgd_step eta": (lambda: sgd_step(np.zeros(2), np.ones(2), np.nan), "step size eta"),
    "gauss_newton_step eta": (lambda: gauss_newton_step(np.zeros(2), np.ones(2), np.eye(2),
                                                        np.nan), "step size eta"),
    "newton_pinv_step eta": (lambda: newton_pinv_step(np.zeros(2), np.ones(2), np.eye(2),
                                                      np.nan), "step size eta"),
    "grad_fd eps": (lambda: grad_fd(lambda v: float(v @ v), np.zeros(2), np.nan), "eps"),
    "LBFGSState m=1.5": (lambda: LBFGSState(m=1.5), "memory size m"),
    "LBFGSState m=nan": (lambda: LBFGSState(m=np.nan), "memory size m"),
}


@pytest.mark.parametrize("build,name", _REFUSED.values(), ids=_REFUSED.keys())
def test_nan_and_fractional_settings_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_an_integral_float_memory_size_still_works():
    state = LBFGSState(m=2.0)
    for i in range(3):
        state = lbfgs_update(state, np.full(2, i + 1.0), np.full(2, i + 1.0))
    assert state.m == 2 and len(state.history) == 2


# --- sgd ----------------------------------------------------------------------

def test_sgd_zero_gradient_fixed_point():
    th = sgd_step(np.array([1.0, 2.0]), np.zeros(2), 0.1)
    np.testing.assert_array_equal(th.values, [1.0, 2.0])


def test_sgd_arithmetic():
    th = sgd_step(np.array([1.0]), np.array([2.0]), 0.5)
    np.testing.assert_array_equal(th.values, [0.0])


def test_sgd_contracts_on_quadratic():
    theta = np.array([4.0])
    prev = abs(theta[0])
    for _ in range(20):
        theta = sgd_step(theta, theta, 0.5).values   # grad of 0.5 theta^2 is theta
        assert abs(theta[0]) < prev
        prev = abs(theta[0])


def test_sgd_matches_exp_decay_exactly():
    # eta = 0.5 keeps every iterate a power of two: exact float equality
    theta = np.array([1.0])
    for t in range(1, 30):
        theta = sgd_step(theta, theta, 0.5).values
        assert theta[0] == 0.5**t


# --- adam ----------------------------------------------------------------------

def test_adam_zero_gradient_no_motion():
    state = AdamState.fresh(3)
    new_state, th = adam_step(state, np.ones(3), np.zeros(3))
    np.testing.assert_array_equal(th.values, np.ones(3))
    np.testing.assert_array_equal(new_state.m, np.zeros(3))
    np.testing.assert_array_equal(new_state.v, np.zeros(3))
    assert new_state.t == 1


def test_adam_fresh_unit_gradient_step():
    state = AdamState.fresh(1)
    _, th = adam_step(state, np.zeros(1), np.ones(1))
    expected = -state.eta / (1.0 + state.eps)
    assert th.values[0] == pytest.approx(expected, abs=1e-15)
    assert th.values[0] == pytest.approx(-0.00099999999, abs=1e-11)


def test_adam_no_history_collapse():
    state = AdamState(np.zeros(2), np.zeros(2), beta1=0.0, beta2=0.0,
                      eps=1e-8, eta=0.01)
    g = np.array([3.0, -0.5])
    _, th = adam_step(state, np.zeros(2), g)
    np.testing.assert_allclose(th.values, -0.01 * g / (np.abs(g) + 1e-8),
                               rtol=1e-14)


def test_adam_step_magnitude_approaches_eta():
    state = AdamState(np.zeros(2), np.zeros(2), beta1=0.0, beta2=0.0,
                      eps=1e-300, eta=0.01)
    g = np.array([1e-3, -1e5])
    _, th = adam_step(state, np.zeros(2), g)
    np.testing.assert_allclose(np.abs(th.values), 0.01, rtol=1e-12)


def test_adam_state_validation():
    with pytest.raises(ValueError):
        AdamState(np.zeros(2), np.zeros(2), beta1=1.0)
    with pytest.raises(ValueError):
        AdamState(np.zeros(2), -np.ones(2))


@pytest.mark.parametrize("eta", [0.0, -0.5, np.inf, np.nan])
def test_adam_state_refuses_a_step_size_that_is_not_positive_and_finite(eta):
    with pytest.raises(ValueError, match="step size eta must be positive"):
        AdamState.fresh(2, eta=eta)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 8), t=st.integers(0, 10_000),
       beta1=st.floats(0.0, 0.999), beta2=st.floats(0.0, 0.9999),
       eps=st.floats(1e-12, 1e-2), eta=st.floats(1e-6, 1.0))
def test_adam_step_is_the_documented_update(data, n, t, beta1, beta2, eps, eta):
    def vector(lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    m, v, g, values = vector(-1e3, 1e3), vector(0.0, 1e6), vector(-1e3, 1e3), vector(-10, 10)
    theta = ThetaVector(values)
    state = AdamState(m, v, beta1, beta2, eps, eta, t)
    before = [a.copy() for a in (m, v, g, values)]

    new_state, new_theta = adam_step(state, theta, g)

    # the module docstring's update, in the same operation order
    m1 = beta1 * m + (1.0 - beta1) * g
    v1 = beta2 * v + (1.0 - beta2) * g * g
    mhat = m1 / (1.0 - beta1 ** (t + 1))
    vhat = v1 / (1.0 - beta2 ** (t + 1))
    theta1 = values - eta * mhat / (np.sqrt(vhat) + eps)
    for got, want in ((new_theta.values, theta1), (new_state.m, m1), (new_state.v, v1)):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    # the unvalidated result is a state the constructor accepts as it stands
    rebuilt = AdamState(new_state.m, new_state.v, new_state.beta1, new_state.beta2,
                        new_state.eps, new_state.eta, new_state.t)
    assert rebuilt == new_state and new_state.t == t + 1
    assert (new_state.beta1, new_state.beta2, new_state.eps, new_state.eta) == \
        (beta1, beta2, eps, eta)
    # functional: neither the state, theta nor g changed
    for after, old in zip((state.m, state.v, g, theta.values), before):
        np.testing.assert_array_equal(_bits(after), _bits(old))
    assert state.t == t


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 6), t=st.integers(0, 10**6),
       beta1=st.floats(0.0, 1.0, exclude_max=True), beta2=st.floats(0.0, 1.0, exclude_max=True),
       eps=st.floats(1e-300, 1.0), eta=st.floats(1e-9, 1e3),
       alias=st.sampled_from(["none", "g is m", "g is theta"]))
def test_adam_steps_are_the_formula_and_write_no_input(data, n, t, beta1, beta2, eps, eta,
                                                       alias):
    def vector(elements):
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))

    m, v, g, values = vector(FINITE), np.abs(vector(FINITE)), vector(FINITE), vector(FINITE)
    g = {"none": g, "g is m": m, "g is theta": values}[alias]
    for a in (m, v, g, values):
        a.flags.writeable = False           # a write into a caller's array raises
    state, theta = AdamState(m, v, beta1, beta2, eps, eta, t), ThetaVector(values)
    with np.errstate(all="ignore"):         # g g may overflow; both sides round alike
        s1, th1 = adam_step(state, theta, g)
        s2, th2 = adam_step(s1, th1, g)     # the next step reads the advanced state
        want_m, want_v, want = m, v, values
        for step in (t + 1, t + 2):
            # the module docstring's update, evaluated as written, left to right
            want_m = beta1 * want_m + (1 - beta1) * g
            want_v = beta2 * want_v + (1 - beta2) * g * g
            mhat = want_m / (1 - beta1 ** step)
            vhat = want_v / (1 - beta2 ** step)
            want = want - eta * mhat / (np.sqrt(vhat) + eps)
            if step == t + 1:
                np.testing.assert_array_equal(_bits(th1.values), _bits(want))
    for got, expected in ((th2.values, want), (s2.m, want_m), (s2.v, want_v)):
        np.testing.assert_array_equal(_bits(got), _bits(expected))
    assert (s2.t, state.t) == (t + 2, t)
    assert not any(np.shares_memory(out, a) for out in (s1.m, s1.v, th1.values)
                   for a in (m, v, g, values))


def test_with_values_keeps_layout_and_checks_size():
    # the layout is the pipeline's; a same-size vector reads back through it
    pipe = Pipeline.dense([1, 2], [no_reaction()])
    theta = pipe.init_theta(np.random.default_rng(0))
    moved = theta.with_values([5, 6, 7, 8])
    assert moved.values.dtype == float
    (params,) = pipe.params(moved)
    np.testing.assert_array_equal(params["W"], [[5.0], [6.0]])
    np.testing.assert_array_equal(params["b"], [7.0, 8.0])
    with pytest.raises(ValueError, match="keep the vector size"):
        theta.with_values(np.zeros(5))


# --- newton / gauss-newton -----------------------------------------------------

def test_newton_identity_hessian_is_sgd():
    g = np.array([1.0, -2.0])
    th_newton = newton_pinv_step(np.zeros(2), g, np.eye(2), 0.3)
    th_sgd = sgd_step(np.zeros(2), g, 0.3)
    np.testing.assert_allclose(th_newton.values, th_sgd.values, atol=1e-12)


def test_newton_lands_on_quadratic_minimizer():
    rng = np.random.default_rng(40)
    Q = rng.standard_normal((4, 4))
    H = Q.T @ Q + 3.0 * np.eye(4)
    b = rng.standard_normal(4)
    theta0 = rng.standard_normal(4)
    th = newton_pinv_step(theta0, H @ theta0 - b, H, 1.0)
    np.testing.assert_allclose(th.values, np.linalg.solve(H, b), atol=1e-10)


def test_newton_diagonal_case():
    th = newton_pinv_step(np.zeros(2), np.array([2.0, 4.0]),
                          np.diag([2.0, 4.0]), 1.0)
    np.testing.assert_allclose(th.values, [-1.0, -1.0], atol=1e-11)


def test_gauss_newton_one_step_least_squares():
    rng = np.random.default_rng(41)
    J = rng.standard_normal((12, 4))
    b = rng.standard_normal(12)
    theta0 = rng.standard_normal(4)
    th = gauss_newton_step(theta0, J @ theta0 - b, J, 1.0)
    oracle, *_ = np.linalg.lstsq(J, b, rcond=None)
    np.testing.assert_allclose(th.values, oracle, atol=1e-9)


def test_gauss_newton_zero_residual_fixed_point():
    J = np.eye(3)
    th = gauss_newton_step(np.ones(3), np.zeros(3), J, 1.0)
    np.testing.assert_allclose(th.values, np.ones(3), atol=1e-14)


def test_gauss_newton_identity_jacobian_is_sgd_on_residual():
    r = np.array([1.0, -2.0, 0.5])
    th = gauss_newton_step(np.zeros(3), r, np.eye(3), 0.7)
    np.testing.assert_allclose(th.values, -0.7 * r, atol=1e-12)


@pytest.mark.parametrize("eta", [0.0, -1.0])
def test_newton_refuses_a_step_size_that_is_not_positive(eta):
    with pytest.raises(ValueError, match="step size eta must be positive"):
        newton_pinv_step(np.zeros(2), np.ones(2), np.eye(2), eta)


@pytest.mark.parametrize("eta", [0.0, -1.0])
def test_gauss_newton_refuses_a_step_size_that_is_not_positive(eta):
    with pytest.raises(ValueError, match="step size eta must be positive"):
        gauss_newton_step(np.zeros(2), np.array([1.0, 2.0]), np.eye(2), eta)


def test_gauss_newton_needs_enough_residuals():
    with pytest.raises(ValueError):
        gauss_newton_step(np.zeros(3), np.zeros(2), np.zeros((2, 3)), 1.0)


def test_gauss_newton_matches_newton_when_h_is_jtj():
    rng = np.random.default_rng(42)
    J = rng.standard_normal((8, 3))
    r = rng.standard_normal(8)
    theta0 = rng.standard_normal(3)
    gn = gauss_newton_step(theta0, r, J, 1.0)
    # quadratic model: H = J^T J, g = J^T r
    nw = newton_pinv_step(theta0, J.T @ r, J.T @ J, 1.0)
    np.testing.assert_allclose(gn.values, nw.values, atol=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), extra_rows=st.integers(0, 4),
       deficient=st.booleans(), eta=st.floats(0.1, 1.0))
def test_second_order_steps_take_the_exact_pseudoinverse(seed, n, extra_rows, deficient, eta):
    # M = U diag(s) V^T with s in [1, 10], so cond(M) <= 10 unless a column is
    # repeated, which drops the rank by one: the minimum-norm step, undamped
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(n)

    def matrix(rows):
        U, _ = np.linalg.qr(rng.standard_normal((rows, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = U * rng.uniform(1.0, 10.0, n) @ V.T
        if deficient:
            i, j = rng.choice(n, 2, replace=False)
            M[:, j] = M[:, i]
        return M

    H, J = matrix(n), matrix(n + extra_rows)
    g, r = rng.standard_normal(n), rng.standard_normal(n + extra_rows)
    for got, M, v in ((newton_pinv_step(theta, g, H, eta), H, g),
                      (gauss_newton_step(theta, r, J, eta), J, r)):
        want = theta - eta * np.linalg.pinv(M) @ v
        assert np.linalg.norm(got.values - want) <= 1e-9 * np.linalg.norm(want)


# --- L-BFGS ---------------------------------------------------------------------

def test_lbfgs_empty_history_is_gradient_descent():
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(lbfgs_direction(LBFGSState(), g), -g)


def test_lbfgs_single_pair_s_equals_y():
    rng = np.random.default_rng(43)
    s = rng.standard_normal(4)
    state = lbfgs_update(LBFGSState(), s, s)
    g = rng.standard_normal(4)
    np.testing.assert_allclose(lbfgs_direction(state, g), -g, atol=1e-13)


def test_lbfgs_curvature_guard():
    state = LBFGSState()
    state = lbfgs_update(state, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert state.history == ()
    state = lbfgs_update(state, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert len(state.history) == 1
    with pytest.raises(ValueError):
        LBFGSState(history=((np.ones(2), -np.ones(2)),))


def test_lbfgs_memory_limit():
    state = LBFGSState(m=2)
    rng = np.random.default_rng(44)
    for _ in range(5):
        s = rng.standard_normal(3)
        state = lbfgs_update(state, s, s + rng.random(3) * 0.1 + 0.1 * s)
    assert len(state.history) == 2


def test_lbfgs_descent_direction():
    rng = np.random.default_rng(45)
    H = np.diag([1.0, 4.0, 9.0])
    state = LBFGSState()
    for _ in range(5):
        s = rng.standard_normal(3)
        state = lbfgs_update(state, s, H @ s)
    for _ in range(10):
        g = rng.standard_normal(3)
        d = lbfgs_direction(state, g)
        assert g @ d < 0.0


def test_lbfgs_conjugate_history_matches_newton_on_quadratic():
    # eigenvector pairs are H-conjugate, so n BFGS updates rebuild H^{-1}
    H = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    rng = np.random.default_rng(46)
    state = LBFGSState()
    _, vecs = np.linalg.eigh(H)
    for s in vecs.T:
        state = lbfgs_update(state, s, H @ s)
    g = rng.standard_normal(3)
    np.testing.assert_allclose(lbfgs_direction(state, g),
                               -np.linalg.solve(H, g), atol=1e-8)


def test_lbfgs_matches_dense_bfgs_oracle_on_random_pairs():
    rng = np.random.default_rng(48)
    H = np.diag([2.0, 5.0, 1.0])
    state = LBFGSState()
    pairs = []
    for _ in range(3):
        s = rng.standard_normal(3)
        y = H @ s
        state = lbfgs_update(state, s, y)
        pairs.append((s, y))
    g = rng.standard_normal(3)
    s_new, y_new = pairs[-1]
    Hinv = (s_new @ y_new) / (y_new @ y_new) * np.eye(3)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        V = np.eye(3) - rho * np.outer(s, y)
        Hinv = V @ Hinv @ V.T + rho * np.outer(s, s)
    np.testing.assert_allclose(lbfgs_direction(state, g), -Hinv @ g, atol=1e-8)


# --- equivariance ----------------------------------------------------------------

def test_steps_permutation_equivariant():
    rng = np.random.default_rng(47)
    n = 5
    theta = rng.standard_normal(n)
    g = rng.standard_normal(n)
    perm = rng.permutation(n)

    a = sgd_step(theta, g, 0.1).values
    b = sgd_step(theta[perm], g[perm], 0.1).values
    np.testing.assert_allclose(a[perm], b, atol=1e-15)

    state = AdamState.fresh(n)
    _, th1 = adam_step(state, theta, g)
    _, th2 = adam_step(state, theta[perm], g[perm])
    np.testing.assert_allclose(th1.values[perm], th2.values, atol=1e-15)

    Q = rng.standard_normal((n, n))
    H = Q.T @ Q + 2 * np.eye(n)
    th1 = newton_pinv_step(theta, g, H, 1.0)
    th2 = newton_pinv_step(theta[perm], g[perm], H[np.ix_(perm, perm)], 1.0)
    np.testing.assert_allclose(th1.values[perm], th2.values, atol=1e-10)

    J = rng.standard_normal((2 * n, n))
    r = rng.standard_normal(2 * n)
    th1 = gauss_newton_step(theta, r, J, 1.0)
    th2 = gauss_newton_step(theta[perm], r, J[:, perm], 1.0)
    np.testing.assert_allclose(th1.values[perm], th2.values, atol=1e-10)


# --- finite differences -----------------------------------------------------------

def test_grad_fd_linear():
    grad = grad_fd(lambda th: th[0], np.array([1.0, 2.0, 3.0]), 1e-6)
    np.testing.assert_allclose(grad, [1.0, 0.0, 0.0], atol=1e-9)


def test_grad_fd_quadratic():
    grad = grad_fd(lambda th: 0.5 * float(th @ th), np.array([3.0, 4.0]), 1e-6)
    np.testing.assert_allclose(grad, [3.0, 4.0], atol=1e-9)


def test_grad_fd_reports_bad_coordinate():
    def loss(th):
        return float("nan") if th[1] != 2.0 else 1.0
    with pytest.raises(FloatingPointError, match="coordinate 1"):
        grad_fd(loss, np.array([1.0, 2.0]), 1e-6)


def test_grad_fd_accepts_theta_vector():
    th = ThetaVector(np.array([3.0, 4.0]))
    grad = grad_fd(lambda t: 0.5 * float(t.values @ t.values), th, 1e-6)
    np.testing.assert_allclose(grad, [3.0, 4.0], atol=1e-9)
