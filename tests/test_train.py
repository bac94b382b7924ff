import warnings

import numpy as np
import pytest

from npde.grid import dirichlet, extend, make_grid, mirror, periodic
from npde.optim import LossSpec, ThetaVector, grad_fd
from npde.reactions import fisher, no_reaction, sigmoid_reaction
from npde.solver import cfl_check
from npde.stencil import EllipticCoefficients
from npde.train import (Dataset, DenseLayer, DiffusionLayer, OptimizerConfig,
                        Pipeline, _jacobian, _stack, batch_gradient, batch_loss,
                        train_supervised)


def _xor_data():
    return Dataset([(np.array([0.0, 0.0]), np.array([0.0])),
                    (np.array([0.0, 1.0]), np.array([1.0])),
                    (np.array([1.0, 0.0]), np.array([1.0])),
                    (np.array([1.0, 1.0]), np.array([0.0]))])


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([])
    with pytest.raises(ValueError):
        Dataset([(np.zeros(2), np.zeros(1)), (np.zeros(3), np.zeros(1))])


def test_single_dense_gradient_matches_hand_formula():
    rng = np.random.default_rng(50)
    model = Pipeline.dense([3, 2], [no_reaction()])
    theta = model.init_theta(rng)
    x = rng.standard_normal(3)
    t = rng.standard_normal(2)
    grad = batch_gradient(model, theta, [(x, t)], LossSpec())
    W = theta.get("layer0.W").reshape(2, 3)
    b = theta.get("layer0.b")
    r = W @ x + b - t
    np.testing.assert_allclose(grad[:6], np.outer(r, x).ravel(), atol=1e-13)
    np.testing.assert_allclose(grad[6:], r, atol=1e-13)


def test_zero_step_pipeline_gradient_is_weight_decay():
    grid = make_grid(6, 0.5, 0.05, periodic())
    model = Pipeline([DiffusionLayer(grid, 0)])
    rng = np.random.default_rng(51)
    theta = model.init_theta(rng)
    x = rng.standard_normal(6)
    grad = batch_gradient(model, theta, [(x, x)], LossSpec(nu=0.3))
    np.testing.assert_allclose(grad, 0.3 * theta.values, atol=1e-14)


def test_unstable_initial_coefficients_warn_by_cfl_check():
    grid = make_grid(6, 1.0, 0.1, periodic())
    model = Pipeline([DiffusionLayer(grid, 2)])
    data = Dataset([(np.ones(6), np.ones(6))])
    theta = model.init_theta(np.random.default_rng(0))

    def run(a):
        train_supervised(model, data, LossSpec(), OptimizerConfig("sgd"), seed=0,
                         max_epochs=0, target_loss=0.0, theta0=theta.with_values(np.full(6, a)))

    # r * |A| = 0.01 is small, but negative A is anti-diffusion
    with pytest.warns(RuntimeWarning, match="explicit-unstable"):
        run(-0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(0.1)


@pytest.mark.parametrize("bc", [periodic(), dirichlet(0.0), dirichlet(0.7),
                                mirror(), extend()])
def test_diffusion_unroll_gradient_matches_fd(bc):
    rng = np.random.default_rng(52)
    n = 12
    grid = make_grid(n, 0.5, 0.05, bc)
    model = Pipeline([DiffusionLayer(grid, 3)])
    theta = model.init_theta(rng).with_values(rng.uniform(0.2, 1.0, n))
    samples = [(rng.standard_normal(n), rng.standard_normal(n))]
    analytic = batch_gradient(model, theta, samples, LossSpec())
    fd = grad_fd(lambda t: batch_loss(model, t, samples, LossSpec()), theta, 1e-6)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_diffusion_unroll_with_reaction_gradient_matches_fd():
    rng = np.random.default_rng(53)
    n = 10
    grid = make_grid(n, 0.5, 0.05, periodic())
    model = Pipeline([DiffusionLayer(grid, 4, reaction=fisher(0.8))])
    theta = model.init_theta(rng).with_values(rng.uniform(0.2, 1.0, n))
    samples = [(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))]
    analytic = batch_gradient(model, theta, samples, LossSpec())
    fd = grad_fd(lambda t: batch_loss(model, t, samples, LossSpec()), theta, 1e-6)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_two_layer_sigmoid_gradient_matches_fd():
    rng = np.random.default_rng(54)
    model = Pipeline.dense([3, 5, 2], [sigmoid_reaction(1.0), sigmoid_reaction(1.0)])
    theta = model.init_theta(rng)
    samples = [(rng.standard_normal(3), rng.standard_normal(2)) for _ in range(3)]
    spec = LossSpec(nu=0.05)
    analytic = batch_gradient(model, theta, samples, spec)
    fd = grad_fd(lambda t: batch_loss(model, t, samples, spec), theta, 1e-6)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_pipeline_rejects_nondifferentiable_activation():
    from npde.reactions import source
    with pytest.raises(ValueError):
        DenseLayer(2, 2, source(np.zeros(2)))


def test_train_short_circuits_when_target_met():
    model = Pipeline.dense([2, 1], [no_reaction()])
    report = train_supervised(model, _xor_data(), LossSpec(),
                              OptimizerConfig("sgd", eta=0.1), seed=0,
                              max_epochs=100, target_loss=float("inf"))
    assert report.converged and report.epochs == 0
    assert report.stop_reason == "target_loss"


def test_train_is_deterministic():
    model = Pipeline.dense([2, 3, 1], [sigmoid_reaction(1.0), sigmoid_reaction(1.0)])
    kwargs = dict(data=_xor_data(), loss=LossSpec(),
                  opt=OptimizerConfig("adam", eta=0.01), seed=7,
                  max_epochs=50, target_loss=0.0)
    r1 = train_supervised(model, **kwargs)
    r2 = train_supervised(model, **kwargs)
    np.testing.assert_array_equal(r1.loss_curve, r2.loss_curve)
    np.testing.assert_array_equal(r1.final_theta.values, r2.final_theta.values)


def test_gauss_newton_linear_regression_one_epoch():
    rng = np.random.default_rng(55)
    X = rng.standard_normal((20, 3))
    w_true = np.array([1.5, -2.0, 0.5])
    y = X @ w_true + 0.1 * rng.standard_normal(20)
    data = Dataset([(x, np.array([t])) for x, t in zip(X, y)])
    model = Pipeline.dense([3, 1], [no_reaction()])
    # normal-equation oracle for the minimal mean loss
    Xb = np.hstack([X, np.ones((20, 1))])
    w_opt, *_ = np.linalg.lstsq(Xb, y, rcond=None)
    min_loss = 0.5 * np.mean((Xb @ w_opt - y) ** 2)
    report = train_supervised(model, data, LossSpec(),
                              OptimizerConfig("gauss_newton", eta=1.0), seed=1,
                              max_epochs=10, target_loss=min_loss + 1e-9)
    assert report.converged and report.epochs == 1
    assert report.final_loss == pytest.approx(min_loss, rel=1e-9)


def test_lbfgs_beats_sgd_on_quadratic_bowl():
    rng = np.random.default_rng(56)
    X = rng.standard_normal((30, 4)) * np.array([1.0, 1.0, 5.0, 0.2])
    y = X @ rng.standard_normal(4)
    data = Dataset([(x, np.array([t])) for x, t in zip(X, y)])
    model = Pipeline.dense([4, 1], [no_reaction()])
    rep_lbfgs = train_supervised(model, data, LossSpec(),
                                 OptimizerConfig("lbfgs", eta=0.5), seed=2,
                                 max_epochs=200, target_loss=1e-8)
    rep_sgd = train_supervised(model, data, LossSpec(),
                               OptimizerConfig("sgd", eta=0.01), seed=2,
                               max_epochs=200, target_loss=1e-8)
    assert rep_lbfgs.final_loss < rep_sgd.final_loss


def test_min_so_far_loss_non_increasing():
    model = Pipeline.dense([2, 4, 1], [sigmoid_reaction(1.0), sigmoid_reaction(1.0)])
    report = train_supervised(model, _xor_data(), LossSpec(),
                              OptimizerConfig("adam"), seed=3,
                              max_epochs=200, target_loss=0.0)
    running = np.minimum.accumulate(report.loss_curve)
    assert report.best_loss <= running[-1] + 1e-15
    assert np.all(np.diff(running) <= 0.0 + 1e-15)


def test_weight_decay_shrinks_final_norm():
    rng = np.random.default_rng(57)
    X = rng.standard_normal((25, 3))
    y = X @ np.array([2.0, -1.0, 3.0]) + 0.05 * rng.standard_normal(25)
    data = Dataset([(x, np.array([t])) for x, t in zip(X, y)])
    model = Pipeline.dense([3, 1], [no_reaction()])
    for seed in (0, 1, 2):
        norms = {}
        for nu in (0.0, 0.5):
            report = train_supervised(model, data, LossSpec(nu=nu),
                                      OptimizerConfig("sgd", eta=0.02), seed=seed,
                                      max_epochs=3000, target_loss=-1.0)
            norms[nu] = np.linalg.norm(report.final_theta.values)
        assert norms[0.5] <= norms[0.0] + 1e-9


def test_divergence_stops_and_keeps_last_finite_theta():
    rng = np.random.default_rng(58)
    X = rng.standard_normal((10, 2))
    y = X @ np.array([1.0, 1.0])
    data = Dataset([(x, np.array([t])) for x, t in zip(X, y)])
    model = Pipeline.dense([2, 1], [no_reaction()])
    report = train_supervised(model, data, LossSpec(),
                              OptimizerConfig("sgd", eta=1e6), seed=4,
                              max_epochs=50, target_loss=1e-12)
    assert report.stop_reason == "divergence"
    assert not report.converged
    assert np.all(np.isfinite(report.final_theta.values))


def test_residuals_and_jacobian_match_fd():
    rng = np.random.default_rng(59)
    model = Pipeline.dense([2, 3, 2], [sigmoid_reaction(1.0), no_reaction()])
    theta = model.init_theta(rng)
    samples = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(2)]
    # the Jacobian Gauss-Newton steps with, on one batched forward's caches
    X, T = _stack(samples)
    out, caches = model.forward_with_caches(theta, X)
    r = (out - T).ravel()
    J = _jacobian(model, theta, caches, out.shape)
    assert r.shape == (4,) and J.shape == (4, model.n_params)
    np.testing.assert_allclose(r, np.concatenate([model.forward(theta, x) - t
                                                  for x, t in samples]), rtol=0, atol=1e-14)
    eps = 1e-6
    for col in range(model.n_params):
        vp = theta.values.copy()
        vp[col] += eps
        vm = theta.values.copy()
        vm[col] -= eps
        rp = np.concatenate([model.forward(theta.with_values(vp), x) - t
                             for x, t in samples])
        rm = np.concatenate([model.forward(theta.with_values(vm), x) - t
                             for x, t in samples])
        np.testing.assert_allclose(J[:, col], (rp - rm) / (2 * eps),
                                   rtol=1e-4, atol=1e-7)


def test_pipeline_from_blocks_round_trip():
    from npde.blocks import gen_dense
    rng = np.random.default_rng(60)
    W1, b1 = rng.standard_normal((4, 2)), rng.standard_normal(4)
    W2, b2 = rng.standard_normal((1, 4)), rng.standard_normal(1)
    pipe = Pipeline.from_blocks([gen_dense(W1, b1, sigmoid_reaction(1.0)),
                                 gen_dense(W2, b2, sigmoid_reaction(1.0))])
    # each block's W then b, in pipe.layout order
    assert [name for name, _, _ in pipe.layout] == ["layer0.W", "layer0.b",
                                                    "layer1.W", "layer1.b"]
    theta = ThetaVector(np.concatenate([W1.ravel(), b1, W2.ravel(), b2]), pipe.layout)
    x = rng.standard_normal(2)
    z = 1.0 / (1.0 + np.exp(-(W1 @ x + b1)))
    expected = 1.0 / (1.0 + np.exp(-(W2 @ z + b2)))
    np.testing.assert_allclose(pipe.forward(theta, x), expected, atol=1e-12)


def test_init_theta_respects_fan_in_bound():
    model = Pipeline.dense([100, 10], [no_reaction()])
    theta = model.init_theta(np.random.default_rng(61))
    assert np.max(np.abs(theta.values)) <= 1.0 / np.sqrt(100)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(8))
def test_diffusion_layer_starts_monotone(seed):
    grid = make_grid(5, 1.0, 0.25, periodic())      # npde train's diffusion test grid
    model = Pipeline([DiffusionLayer(grid, 1)])
    rng = np.random.default_rng(seed)
    theta = model.init_theta(rng)
    assert cfl_check(EllipticCoefficients(theta.get("layer0.A")), grid).stable
    # n draws, as the +-1/sqrt(3) rule took, so the stream that follows is unchanged
    old = np.random.default_rng(seed)
    old.uniform(-3 ** -0.5, 3 ** -0.5, 5)
    assert rng.random() == old.random()
    data = Dataset([(np.eye(5)[0], np.eye(5)[1])])
    train_supervised(model, data, LossSpec(), OptimizerConfig(), seed, 1, 0.0)
