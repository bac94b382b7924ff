import hashlib
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import npde.train
from npde.grid import dirichlet, extend, make_grid, mirror, periodic
from npde.optim import LossSpec, ThetaVector, grad_fd
from npde.reactions import fisher, linear, no_reaction, sigmoid_reaction, source
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
    (params,) = model.params(theta)
    W, b = params["W"], params["b"]
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


@pytest.mark.parametrize("bc", [periodic(), dirichlet(0.0), dirichlet(0.7),
                                mirror(), extend()])
def test_source_forced_diffusion_layer_gradient_matches_fd(bc):
    # a source has no dR/du, so the step's adjoint in u is the taps' alone
    rng = np.random.default_rng(54)
    n = 10
    grid = make_grid(n, 0.5, 0.05, bc)
    model = Pipeline([DiffusionLayer(grid, 3, source(rng.standard_normal(n)))])
    theta = model.init_theta(rng).with_values(rng.uniform(0.2, 1.0, n))
    samples = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(2)]
    spec = LossSpec(nu=0.05)
    analytic = batch_gradient(model, theta, samples, spec)
    fd = grad_fd(lambda t: batch_loss(model, t, samples, spec), theta, 1e-6)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_source_forced_diffusion_blocks_replay_forward_bit_for_bit():
    grid = make_grid(7, 1.0, 0.2, mirror())
    rng = np.random.default_rng(55)
    model = Pipeline([DiffusionLayer(grid, 2, source(rng.standard_normal(7)))])
    theta = model.init_theta(rng)
    for x in rng.standard_normal((3, 7)):
        out = x
        for block in model.blocks(theta):
            out = block.forward(out)
        np.testing.assert_array_equal(out.view(np.int64),
                                      model.forward(theta, x).view(np.int64))


def test_identity_diffusion_layer_returns_a_fresh_array():
    grid = make_grid(5, 1.0, 0.2, periodic())
    model = Pipeline([DiffusionLayer(grid, 0)])
    x = np.arange(5.0)
    out = model.forward(model.init_theta(np.random.default_rng(56)), x)
    np.testing.assert_array_equal(out, x)
    assert not np.shares_memory(out, x)


def test_diffusion_backward_memory_does_not_grow_with_steps():
    grid = make_grid(4000, 0.1, 0.004, periodic())
    layer = DiffusionLayer(grid, 200, fisher(1.0))
    rng = np.random.default_rng(56)
    params = {"A": np.ones(4000)}
    _, cache = layer.forward(params, rng.uniform(0.0, 1.0, (1, 4000)))
    gy = rng.standard_normal((1, 4000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        layer.backward(cache, gy)
        growth = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a cotangent per step would be 200 rows of 4000 numbers, 6.1 MiB
    assert growth < 2**20


def test_diffusion_gradient_is_the_stencil_step_adjoint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("DiffusionLayer.backward ran stencil._tap_step_vjp")

    monkeypatch.setattr(npde.train, "_tap_step_vjp", refuse)
    grid = make_grid(8, 0.5, 0.05, mirror())
    model = Pipeline([DiffusionLayer(grid, 2, fisher(0.5))])
    rng = np.random.default_rng(57)
    samples = [(rng.uniform(0.0, 1.0, 8), rng.uniform(0.0, 1.0, 8))]
    with pytest.raises(AssertionError, match="_tap_step_vjp"):
        batch_gradient(model, model.init_theta(rng), samples, LossSpec())
    # the tap layout and the coefficient ghost rule stay in stencil
    source = inspect.getsource(npde.train)
    assert [name for name in ("_coefficient_bc", "_ghost_scatter", "einsum")
            if name in source] == []


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


def test_gauss_newton_minimises_the_weight_decayed_loss():
    # with nu > 0 the step solves the ridge normal equations, not plain least squares
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    y = X @ np.array([1.5, -2.0, 0.5])
    data = Dataset([(x, np.array([t])) for x, t in zip(X, y)])
    model = Pipeline.dense([3, 1], [no_reaction()])
    nu = 1.0
    Xb = np.hstack([X, np.ones((20, 1))])
    w = np.linalg.solve(Xb.T @ Xb / 20 + nu * np.eye(4), Xb.T @ y / 20)
    min_loss = 0.5 * np.mean((Xb @ w - y) ** 2) + 0.5 * nu * float(w @ w)
    report = train_supervised(model, data, LossSpec(nu=nu),
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
    J = _jacobian(model, caches, out.shape)
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
    # each block's W then b, in layer order
    theta = ThetaVector(np.concatenate([W1.ravel(), b1, W2.ravel(), b2]))
    assert [list(p) for p in pipe.params(theta)] == [["W", "b"], ["W", "b"]]
    np.testing.assert_array_equal(pipe.params(theta)[1]["W"], W2)
    x = rng.standard_normal(2)
    z = 1.0 / (1.0 + np.exp(-(W1 @ x + b1)))
    expected = 1.0 / (1.0 + np.exp(-(W2 @ z + b2)))
    np.testing.assert_allclose(pipe.forward(theta, x), expected, atol=1e-12)


def test_pipeline_refuses_layers_that_do_not_chain():
    with pytest.raises(ValueError, match="layer1 DenseLayer takes 3 inputs, "
                                         "but layer0 DenseLayer gives 4"):
        Pipeline([DenseLayer(2, 4), DenseLayer(3, 1)])
    grid = make_grid(5, 1.0, 0.25, periodic())
    with pytest.raises(ValueError, match="layer2 DenseLayer takes 4 inputs, "
                                         "but layer1 DiffusionLayer gives 5"):
        Pipeline([DenseLayer(2, 5), DiffusionLayer(grid, 1), DenseLayer(4, 1)])


def test_pipeline_from_blocks_refuses_a_block_that_is_not_dense():
    from npde.blocks import gen_conv1d, gen_dense
    grid = make_grid(4, 1.0, 0.25, periodic())
    blocks = [gen_dense(np.ones((4, 2)), np.zeros(4), no_reaction()),
              gen_conv1d(EllipticCoefficients.constant(grid, 1.0), grid)]
    with pytest.raises(ValueError, match="takes DenseBlocks, not Conv1DBlock"):
        Pipeline.from_blocks(blocks)


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
    assert cfl_check(EllipticCoefficients(model.params(theta)[0]["A"]), grid).stable
    # n draws, as the +-1/sqrt(3) rule took, so the stream that follows is unchanged
    old = np.random.default_rng(seed)
    old.uniform(-3 ** -0.5, 3 ** -0.5, 5)
    assert rng.random() == old.random()
    data = Dataset([(np.eye(5)[0], np.eye(5)[1])])
    train_supervised(model, data, LossSpec(), OptimizerConfig(), seed, 1, 0.0)


def test_pipeline_blocks_do_not_share_theta_memory():
    model = Pipeline.dense([3, 2, 1], [sigmoid_reaction(1.0), no_reaction()])
    theta = model.init_theta(np.random.default_rng(62))
    blocks = model.blocks(theta)
    assert not any(np.shares_memory(getattr(b, f), theta.values)
                   for b in blocks for f in ("W", "bias"))
    W = blocks[0].W.copy()
    theta.values[:] = 0.0
    np.testing.assert_array_equal(blocks[0].W, W)


@pytest.mark.parametrize("n_steps", [0, 1, 2])
def test_pipeline_blocks_replay_forward_bit_for_bit(n_steps):
    grid = make_grid(6, 1.0, 0.2, mirror())
    model = Pipeline([DiffusionLayer(grid, n_steps, fisher(0.7)),
                      DenseLayer(6, 3, sigmoid_reaction(1.5))])
    rng = np.random.default_rng(n_steps)
    theta = model.init_theta(rng)
    blocks = model.blocks(theta)
    assert [type(b).__name__ for b in blocks] == ["Conv1DBlock"] * n_steps + ["DenseBlock"]
    for x in rng.standard_normal((3, 6)):
        out = x
        for block in blocks:
            out = block.forward(out)
        np.testing.assert_array_equal(out.view(np.int64),
                                      model.forward(theta, x).view(np.int64))


@settings(max_examples=50)
@given(widths=st.lists(st.integers(1, 32), min_size=2, max_size=4),
       kinds=st.lists(st.sampled_from([no_reaction(), sigmoid_reaction(1.3), fisher(0.7),
                                       linear(-0.4)]), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_dense_pipeline_blocks_replay_forward_bit_for_bit(widths, kinds, seed):
    model = Pipeline.dense(widths, kinds[:len(widths) - 1])
    rng = np.random.default_rng(seed)
    theta = model.init_theta(rng)
    x = rng.standard_normal(widths[0])
    out = x
    for block in model.blocks(theta):
        out = block.forward(out)
    np.testing.assert_array_equal(out.view(np.int64),
                                  model.forward(theta, x).view(np.int64))


def _digest(report):
    return hashlib.sha256(report.loss_curve.tobytes()
                          + report.final_theta.values.tobytes()).hexdigest()


# sha256 of loss_curve.tobytes() + final_theta.values.tobytes(). The XOR digests go
# through np.exp, so they hold where numpy's exp rounds as numpy 2.4 does on
# AVX-512 x86-64.
_XOR_ADAM_DIGESTS = {
    0: "1127aeaa1c172e0224140848978cd6323b4744344a1faf55f7c369266a5c0540",
    1: "fe76bcdcf598c125fe85052c6df5615560191005ea92ca25961dfe85edb321bc",
    2: "42a6b3ac54f482422fb0cdf69bad234d067aa5d7691d62e897d3e32953b17bc1",
    3: "d07fffaa3f5b6d542ff87d4b19773541beba60b3dd00460ff08254b0b7a545af",
    4: "18adf9431c87d562b323fca0c3cf3634b61ef23cb7c2dbda44fbd45268362db6",
}


@pytest.mark.parametrize("seed", sorted(_XOR_ADAM_DIGESTS))
def test_xor_adam_training_keeps_its_pinned_bytes(seed):
    # criterion 7's 2-4-1 sigmoid net, 300 Adam epochs
    model = Pipeline.dense([2, 4, 1], [sigmoid_reaction(1.0), sigmoid_reaction(1.0)])
    report = train_supervised(model, _xor_data(), LossSpec(), OptimizerConfig("adam"),
                              seed=seed, max_epochs=300, target_loss=0.0)
    assert report.epochs == 300 and _digest(report) == _XOR_ADAM_DIGESTS[seed]


def test_diffusion_adam_fit_keeps_its_pinned_bytes():
    # the adam_step path that medium-1d's fit runs, through a fisher DiffusionLayer
    grid = make_grid(64, 1.0, 0.2, mirror())
    rng = np.random.default_rng(64)
    data = Dataset([(x, t) for x, t in rng.uniform(0.0, 1.0, (3, 2, 64))])
    model = Pipeline([DiffusionLayer(grid, 10, fisher(1.0))])
    report = train_supervised(model, data, LossSpec(), OptimizerConfig("adam", eta=0.01),
                              seed=5, max_epochs=5, target_loss=0.0)
    assert report.epochs == 5
    assert _digest(report) == "7c10f8b6a59912d54bac44596676b9bf38071612431412acaead2f25a30df61a"
