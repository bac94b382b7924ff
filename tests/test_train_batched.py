"""Batched training agrees with the per-sample gradients, finite differences and the solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde.grid import dirichlet, extend, make_grid, mirror, periodic
from npde.optim import LossSpec, grad_fd
from npde.reactions import ReactionSpec, no_reaction
from npde.solver import solve_forward
from npde.stencil import EllipticCoefficients
from npde.train import (Dataset, DenseLayer, DiffusionLayer, OptimizerConfig, Pipeline,
                        _jacobian, _stack, batch_gradient, batch_loss, train_supervised)

BCS = st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.7)])
REACTIONS = st.sampled_from([ReactionSpec("none"), ReactionSpec("fisher", 0.8),
                             ReactionSpec("sigmoid", 1.5), ReactionSpec("linear", -0.4)])
SEEDS = st.integers(0, 2**32 - 1)


def _dense_case(seed, n_samples):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 5, rng.integers(2, 5))]
    acts = [ReactionSpec(str(rng.choice(["none", "fisher", "sigmoid", "linear"])), 1.0)
            for _ in dims[1:]]
    model = Pipeline.dense(dims, acts)
    samples = [(rng.standard_normal(dims[0]), rng.standard_normal(dims[-1]))
               for _ in range(n_samples)]
    return model, model.init_theta(rng), samples


def _diffusion_case(seed, n_samples, bc, reaction):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    grid = make_grid(n, 0.5, 0.1, bc)                 # r = 0.4: stable for A < 1.25
    model = Pipeline([DiffusionLayer(grid, int(rng.integers(0, 5)), reaction)])
    theta = model.init_theta(rng).with_values(rng.uniform(0.1, 1.0, n))
    samples = [(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))
               for _ in range(n_samples)]
    return model, theta, samples


def _assert_close(actual, expected, rtol):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


def _assert_mean_of_per_sample(model, theta, samples, loss):
    per_sample = np.mean([batch_gradient(model, theta, [s], loss) for s in samples], axis=0)
    _assert_close(batch_gradient(model, theta, samples, loss), per_sample, 1e-12)


@settings(max_examples=40)
@given(seed=SEEDS, n_samples=st.integers(1, 6), nu=st.sampled_from([0.0, 0.05]))
def test_dense_batch_gradient_is_mean_of_per_sample(seed, n_samples, nu):
    model, theta, samples = _dense_case(seed, n_samples)
    _assert_mean_of_per_sample(model, theta, samples, LossSpec(nu=nu))


@settings(max_examples=60)
@given(seed=SEEDS, n_samples=st.integers(1, 6), bc=BCS, reaction=REACTIONS)
def test_diffusion_batch_gradient_is_mean_of_per_sample(seed, n_samples, bc, reaction):
    model, theta, samples = _diffusion_case(seed, n_samples, bc, reaction)
    _assert_mean_of_per_sample(model, theta, samples, LossSpec())


def _assert_jacobian_rows_match_fd(model, theta, samples):
    X, _ = _stack(samples)
    out, caches = model.forward_with_caches(theta, X)
    J = _jacobian(model, caches, out.shape)
    n_out = len(samples[0][1])
    for row in range(J.shape[0]):
        (x, t), i = samples[row // n_out], row % n_out
        fd = grad_fd(lambda th: float(model.forward(th, x)[i] - t[i]), theta, 1e-6)
        np.testing.assert_allclose(J[row], fd, rtol=1e-5, atol=1e-8)


@settings(max_examples=20)
@given(seed=SEEDS, n_samples=st.integers(1, 3))
def test_dense_jacobian_rows_match_fd(seed, n_samples):
    _assert_jacobian_rows_match_fd(*_dense_case(seed, n_samples))


@settings(max_examples=60)
@given(seed=SEEDS, n_samples=st.integers(1, 3), bc=BCS, reaction=REACTIONS)
def test_diffusion_jacobian_rows_match_fd(seed, n_samples, bc, reaction):
    _assert_jacobian_rows_match_fd(*_diffusion_case(seed, n_samples, bc, reaction))


@settings(max_examples=40)
@given(seed=SEEDS, n_samples=st.integers(1, 5), bc=BCS, n_steps=st.integers(1, 8),
       reaction=REACTIONS)
def test_batched_diffusion_rows_equal_solver_exactly(seed, n_samples, bc, n_steps, reaction):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    grid = make_grid(n, 0.5, 0.1, bc)
    A = rng.uniform(0.1, 1.0, n)
    X = rng.standard_normal((n_samples, n))
    out, _ = DiffusionLayer(grid, n_steps, reaction).forward({"A": A}, X)
    for x, row in zip(X, out):
        solved = solve_forward(x, EllipticCoefficients(A, None, reaction), grid,
                               n_steps).final()
        assert float(np.max(np.abs(row - solved))) == 0.0


# entries that make z land on sigmoid's saturated tails, on either zero, or far out
EXTREME = st.sampled_from([800.0, -800.0, 0.0, -0.0, 1.0, -1.0, 1e6, -1e6, 1e150, -1e150])


def _matrix(data, shape):
    entries = st.one_of(st.floats(-1e3, 1e3), EXTREME)
    return np.array(data.draw(st.lists(entries, min_size=int(np.prod(shape)),
                                       max_size=int(np.prod(shape))))).reshape(shape)


@settings(max_examples=40)
@given(seed=SEEDS, n_samples=st.integers(1, 3), position=st.sampled_from(range(3)),
       bc=BCS, reaction=REACTIONS,
       activation=st.sampled_from(["none", "fisher", "sigmoid", "linear"]))
def test_mixed_pipeline_gradient_matches_fd(seed, n_samples, position, bc, reaction,
                                            activation):
    # the diffusion layer first, between two dense layers, or last: in the middle
    # it both receives and returns an input gradient
    rng = np.random.default_rng(seed)
    n, d_in, d_out = (int(d) for d in rng.integers([3, 1, 1], [9, 5, 5]))
    grid = make_grid(n, 0.5, 0.1, bc)                 # r = 0.4: A starts in [0, 1.25]
    diffusion = DiffusionLayer(grid, int(rng.integers(1, 4)), reaction)
    act = ReactionSpec(activation, 1.0)
    layers = [[diffusion, DenseLayer(n, d_out, act)],
              [DenseLayer(d_in, n, act), diffusion, DenseLayer(n, d_out, act)],
              [DenseLayer(d_in, n, act), diffusion]][position]
    model = Pipeline(layers)
    theta = model.init_theta(rng)
    samples = [(rng.uniform(0.0, 1.0, layers[0].n_in), rng.uniform(0.0, 1.0, layers[-1].n_out))
               for _ in range(n_samples)]
    analytic = batch_gradient(model, theta, samples, LossSpec())
    fd = grad_fd(lambda t: batch_loss(model, t, samples, LossSpec()), theta, 1e-6)
    # criterion 5's allowance
    assert np.all(np.abs(analytic - fd) <= np.maximum(1e-5 * np.abs(fd), 1e-8))


@settings(max_examples=150)
@given(data=st.data(), kind=st.sampled_from(["none", "fisher", "sigmoid", "linear"]),
       rate=st.floats(-50.0, 50.0), n_samples=st.integers(1, 5),
       n_in=st.integers(1, 3), n_out=st.integers(1, 4))
def test_dense_backward_matches_recomputed_derivative(data, kind, rate, n_samples,
                                                      n_in, n_out):
    activation = ReactionSpec(kind, rate)
    layer = DenseLayer(n_in, n_out, activation)
    params = {"W": _matrix(data, (n_out, n_in)), "b": _matrix(data, (n_out,))}
    x = _matrix(data, (n_samples, n_in))
    gy = _matrix(data, (n_samples, n_out))
    with np.errstate(all="ignore"):
        _, cache = layer.forward(params, x)
        gx, grads = layer.backward(cache, gy)
        # the backward pass before the forward's activation was cached
        z = x @ params["W"].T + params["b"]
        gz = gy * activation.activate_deriv(z)
        ref_gx, ref_grads = gz @ params["W"], {"W": gz.T @ x, "b": gz.sum(axis=0)}
    for got, want in ((gx, ref_gx), (grads["W"], ref_grads["W"]),
                      (grads["b"], ref_grads["b"])):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# Gauss-Newton needs at least as many residuals as the 3 parameters
@pytest.mark.parametrize("kind,n_samples", [(kind, n) for kind in ("adam", "sgd", "lbfgs")
                                            for n in (1, 4, 9)]
                         + [("gauss_newton", 4), ("gauss_newton", 9)])
def test_one_forward_pass_per_epoch(monkeypatch, kind, n_samples):
    rng = np.random.default_rng(70)
    data = Dataset([(rng.standard_normal(2), rng.standard_normal(1))
                    for _ in range(n_samples)])
    model = Pipeline.dense([2, 1], [no_reaction()])
    calls = []
    forward = Pipeline.forward_with_caches

    def counted(self, theta, x):
        calls.append(len(x))
        return forward(self, theta, x)

    monkeypatch.setattr(Pipeline, "forward_with_caches", counted)
    report = train_supervised(model, data, LossSpec(nu=0.01),
                              OptimizerConfig(kind, eta=0.05), seed=0,
                              max_epochs=12, target_loss=0.0)
    assert report.stop_reason == "max_epochs"
    assert len(calls) == report.epochs + 1 == 13
    assert calls == [n_samples] * 13
