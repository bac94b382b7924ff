"""Supervised training loop binding pipelines, losses, and optimizers.

A pipeline is an ordered stack of differentiable layers whose parameters live
in one flat ThetaVector, laid out by the pipeline alone (Pipeline.params):

    DenseLayer      y = act(W x + b), parameters W and b
    DiffusionLayer  n unrolled explicit diffusion steps with a learnable
                    per-node coefficient field A (the medium being trained)

Gradients are exact gradients of the discrete unrolled computation, obtained
by reverse accumulation through the steps; grad_fd is the acceptance oracle
they are checked against. Training follows the plain supervised loop: fix the
initial/boundary data, randomize theta (dense tensors uniform in +-1/sqrt(n_in),
a diffusion layer's A uniform in the monotone range [0, 1/(2r)]), solve
forward, take an optimizer step on the L2-with-weight-decay loss, and repeat
until the target loss or the epoch cap is reached. Gradients are full batch
(mean over samples); runs are deterministic given the seed. A trained layer is
the blocks it generates (blocks(params)), which Pipeline.blocks(theta) chains.

Samples ride a leading axis: every layer maps a batch (n_samples, n) in one
call, dense layers as X W^T + b and diffusion layers with the stencil on the
node axis. A dense layer caches its activation output, and its backward pass
reads a sigmoid's derivative rate * a * (1 - a) off that output instead of
recomputing the sigmoid. A diffusion layer runs stencil's one explicit 1D
step forward and that step's adjoint in reverse (see the stencil module).
A layer's forward(params, x) -> (y, cache) caches all that its backward(cache,
gy) -> (gx, grads) reads, a dense layer's W included. An epoch is one forward
and one backward pass over the whole batch: the forward pass that scores an
accepted step also supplies the caches for the next gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import DenseBlock, gen_conv1d, gen_dense
from .grid import GridSpec
from .grid import pad  # noqa: F401 (npde.train.pad stays bound; no layer calls it)
from .reactions import ReactionSpec, no_reaction
from .solver import cfl_check
from .stencil import EllipticCoefficients, _Step1D, _step_taps, _step_taps_vjp, _tap_step_vjp
from .optim import (AdamState, LBFGSState, LossSpec, ThetaVector, adam_step,
                    gauss_newton_step, lbfgs_direction, lbfgs_update, sgd_step)

DIVERGENCE_LOSS = 1e12


class DenseLayer:
    """Fully connected layer with a composed activation, on a batch of rows."""

    def __init__(self, n_in: int, n_out: int,
                 activation: ReactionSpec = no_reaction()):
        if n_in < 1 or n_out < 1:
            raise ValueError("layer sizes must be >= 1")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self._act, self._slope, self._slope_of_output = activation._activation()

    def param_shapes(self):
        return [("W", (self.n_out, self.n_in)), ("b", (self.n_out,))]

    def init_tensor(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform +-1/sqrt(n_in), for W and b alike."""
        bound = 1.0 / np.sqrt(self.n_in)
        return rng.uniform(-bound, bound, size)

    def forward(self, params, x):
        """x is (n_samples, n_in); returns act(x W^T + b), (n_samples, n_out)."""
        z = x @ params["W"].T + params["b"]
        a = self._act(z)
        return a, (params["W"], x, a if self._slope_of_output else z)

    def backward(self, cache, gy):
        W, x, slope_at = cache
        gz = gy * self._slope(slope_at)
        return gz @ W, {"W": gz.T @ x, "b": np.add.reduce(gz, axis=0)}

    def blocks(self, params):
        """The trained layer as the one DenseBlock it is."""
        return [gen_dense(params["W"], params["b"], self.activation)]


class DiffusionLayer:
    """Unrolled explicit diffusion steps with a learnable coefficient field A.

    Each step is the solver's and gen_conv1d's, stencil._Step1D of A's taps
    (C's linear part folded into the centre tap, scalar taps for a uniform A;
    blocks store the unfolded taps), so the trained A drops straight into
    gen_conv1d / step_explicit; backward runs _tap_step_vjp over the
    forward's padded buffers in reverse. Any reaction runs, a source included
    (no dR/du). n_steps = 0 is the identity map (A then only feels weight
    decay). Fields are rows of a batch (n_samples, n); the batch rides along.
    """

    def __init__(self, grid: GridSpec, n_steps: int,
                 reaction: ReactionSpec = no_reaction()):
        if grid.ndim != 1:
            raise ValueError("DiffusionLayer supports 1D grids")
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        self.grid = grid
        self.n_in = self.n_out = grid.n_points
        self.n_steps = n_steps
        self.reaction = reaction

    def param_shapes(self):
        return [("A", (self.grid.n_points,))]

    def init_tensor(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """A uniform in [0, 1/(2r)], r = k/h**2: every step tap starts >= 0."""
        return rng.uniform(0.0, self.grid.h**2 / (2.0 * self.grid.k), size)

    def forward(self, params, x):
        step = _Step1D(_step_taps(params["A"], None, self.grid), self.grid, self.reaction)
        u = np.array(x, dtype=float)   # a copy: n_steps = 0 must not hand x back
        # one padded buffer per step, kept for the backward pass
        padded = np.empty((self.n_steps,) + u.shape[:-1] + (u.shape[-1] + 2,))
        for P in padded:
            u = step(u, P)
        return u, (step, padded)

    def backward(self, cache, gy):
        step, padded = cache
        g, g_taps = gy, np.zeros((3, self.grid.n_points))
        for P in padded[::-1]:
            g, g_step = _tap_step_vjp(step, P, g)
            g_taps += g_step
        return g, {"A": _step_taps_vjp(g_taps, self.grid)}

    def blocks(self, params):
        """One gen_conv1d block per step; n_steps = 0, the identity, has none."""
        return [gen_conv1d(EllipticCoefficients(params["A"], None, self.reaction),
                           self.grid)] * self.n_steps


class Pipeline:
    """Ordered differentiable layers sharing one flat parameter vector.

    Layers act on a batch: row s of the (n_samples, n) input is sample s.
    """

    def __init__(self, layers: list):
        self.layers = list(layers)
        # the one parameter layout: per layer, (name, slice of theta, shape) of each tensor
        self._tensors, cursor = [], 0
        for i, layer in enumerate(self.layers):
            if i and layer.n_in != (prev := self.layers[i - 1]).n_out:
                raise ValueError(f"layer{i} {type(layer).__name__} takes {layer.n_in} inputs, "
                                 f"but layer{i - 1} {type(prev).__name__} gives {prev.n_out}")
            tensors = []
            for name, shape in layer.param_shapes():
                size = int(np.prod(shape))
                tensors.append((name, slice(cursor, cursor + size), shape))
                cursor += size
            self._tensors.append(tuple(tensors))
        self.n_params = cursor

    @classmethod
    def dense(cls, dims: list[int], activations: list[ReactionSpec]) -> "Pipeline":
        """An MLP with dims = [n_in, hidden..., n_out]; one activation per layer."""
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        return cls([DenseLayer(dims[i], dims[i + 1], activations[i])
                    for i in range(len(dims) - 1)])

    @classmethod
    def from_blocks(cls, blocks: list) -> "Pipeline":
        """Build from generated DenseBlocks (shapes and activations carry over)."""
        if other := [type(b).__name__ for b in blocks if not isinstance(b, DenseBlock)]:
            raise ValueError(f"from_blocks takes DenseBlocks, not {other[0]}")
        return cls([DenseLayer(b.W.shape[1], b.W.shape[0], b.activation) for b in blocks])

    def init_theta(self, rng: np.random.Generator) -> ThetaVector:
        """Each tensor from its layer's init_tensor (size uniform draws), in layer order."""
        values = np.empty(self.n_params)
        for layer, tensors in zip(self.layers, self._tensors):
            for _, sl, _ in tensors:
                values[sl] = layer.init_tensor(rng, sl.stop - sl.start)
        return ThetaVector(values)

    def params(self, theta: ThetaVector) -> list[dict]:
        """Per layer, ``{name: tensor}`` views of theta shaped as the layer declares."""
        return [{name: theta.values[sl].reshape(shape) for name, sl, shape in tensors}
                for tensors in self._tensors]

    def forward(self, theta: ThetaVector, x: np.ndarray) -> np.ndarray:
        """Output for one input (n_in,) or a batch (n_samples, n_in)."""
        x = np.asarray(x, dtype=float)
        out, _ = self.forward_with_caches(theta, np.atleast_2d(x))
        return out if x.ndim > 1 else out[0]

    def forward_with_caches(self, theta: ThetaVector, x: np.ndarray):
        """Batch output (n_samples, n_out) plus one cache per layer."""
        caches = []
        out = np.asarray(x, dtype=float)
        for layer, p in zip(self.layers, self.params(theta)):
            out, cache = layer.forward(p, out)
            caches.append(cache)
        return out, caches

    def backward(self, caches, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. theta of <grad_out, output>, summed over the batch,
        from the caches of forward_with_caches(theta, x)."""
        grad = np.empty(self.n_params)
        g = np.asarray(grad_out, dtype=float)
        for layer, cache, tensors in zip(reversed(self.layers), reversed(caches),
                                         reversed(self._tensors)):
            g, grads = layer.backward(cache, g)
            for name, sl, _ in tensors:
                grad[sl] = grads[name].ravel()
        return grad

    def blocks(self, theta: ThetaVector) -> list:
        """Every layer's blocks in order; chained, they replay forward(theta, x)."""
        return [block for layer, p in zip(self.layers, self.params(theta))
                for block in layer.blocks(p)]


def _stack(samples) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and targets of (x, target) samples as two (n_samples, n) arrays."""
    X = np.stack([np.asarray(x, dtype=float) for x, _ in samples])
    T = np.stack([np.asarray(t, dtype=float) for _, t in samples])
    return X, T


def _evaluate(model: Pipeline, theta: ThetaVector, X: np.ndarray, T: np.ndarray,
              loss: LossSpec):
    """One batched forward: the mean loss, the residual out - T and the caches."""
    out, caches = model.forward_with_caches(theta, X)
    residual = out - T
    value = 0.5 * float(np.vdot(residual, residual)) / len(X)
    if loss.nu > 0:
        value += 0.5 * loss.nu * float(theta.values @ theta.values)
    return value, residual, caches


def _gradient(model: Pipeline, theta: ThetaVector, residual: np.ndarray, caches,
              loss: LossSpec) -> np.ndarray:
    """One batched backward: the gradient of the mean loss from _evaluate's pass."""
    grad = model.backward(caches, residual) / len(residual)
    if loss.nu > 0:
        grad += loss.nu * theta.values
    return grad


def _jacobian(model: Pipeline, caches, shape) -> np.ndarray:
    """d residual / d theta: one backward per residual entry [s, i], row-major."""
    rows = np.empty((int(np.prod(shape)), model.n_params))
    for row, index in enumerate(np.ndindex(*shape)):
        one_hot = np.zeros(shape)
        one_hot[index] = 1.0
        rows[row] = model.backward(caches, one_hot)
    return rows


def batch_loss(model: Pipeline, theta: ThetaVector, samples,
               loss: LossSpec) -> float:
    """Mean per-sample half squared error plus one weight-decay term."""
    X, T = _stack(samples)
    return _evaluate(model, theta, X, T, loss)[0]


def batch_gradient(model: Pipeline, theta: ThetaVector, samples,
                   loss: LossSpec) -> np.ndarray:
    """Gradient of batch_loss from one batched forward and backward pass."""
    X, T = _stack(samples)
    _, residual, caches = _evaluate(model, theta, X, T, loss)
    return _gradient(model, theta, residual, caches, loss)


@dataclass(frozen=True)
class Dataset:
    """Supervised samples (input vector, target vector); training uses them all."""

    samples: list

    def __post_init__(self):
        if not self.samples:
            raise ValueError("dataset needs at least one sample")
        if len({(np.shape(x), np.shape(y)) for x, y in self.samples}) != 1:
            raise ValueError("samples are not dimensionally consistent")
        if not all(np.all(np.isfinite(v)) for sample in self.samples for v in sample):
            raise ValueError("samples must be finite")

    @property
    def n_train(self) -> int:
        return len(self.samples)


def _warn_if_unstable(model: Pipeline, theta: ThetaVector) -> None:
    """Flag explicit-unstable initial coefficients in unrolled solver layers.

    Only a warning: the coefficients are the thing being learned and may move
    into (or out of) the stable region during training.
    """
    for i, (layer, p) in enumerate(zip(model.layers, model.params(theta))):
        if isinstance(layer, DiffusionLayer) and layer.n_steps > 0:
            report = cfl_check(EllipticCoefficients(p["A"]), layer.grid)
            if not report.stable:
                warnings.warn(
                    f"layer{i}: initial coefficients are explicit-unstable "
                    f"(a step tap is negative; r*max A = {report.max_r_a:.3g}, "
                    f"limit {report.limit})", RuntimeWarning)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    memory: int = 10

    def __post_init__(self):
        if self.kind not in ("sgd", "adam", "lbfgs", "gauss_newton"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.eta > 0:
            raise ValueError("step size eta must be positive")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch losses and the final parameters of one training run."""

    loss_curve: np.ndarray
    final_theta: ThetaVector
    stop_reason: str                # target_loss | max_epochs | divergence
    final_loss: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "target_loss"

    @property
    def epochs(self) -> int:
        return len(self.loss_curve)

    def summary(self) -> str:
        return (f"epochs={self.epochs} loss={self.final_loss:.17g} "
                f"converged={str(self.converged).lower()}")


def train_supervised(model: Pipeline, data: Dataset, loss: LossSpec,
                     opt: OptimizerConfig, seed: int, max_epochs: int,
                     target_loss: float,
                     theta0: ThetaVector | None = None) -> TrainReport:
    """Deterministic full-batch training until target_loss or max_epochs.

    Theta starts from ``theta0`` when given, else seed-randomized. Divergence
    (non-finite loss or loss above 1e12) stops the run and keeps the last
    finite parameters.
    """
    if max_epochs < 0:
        raise ValueError("max_epochs must be >= 0")
    rng = np.random.default_rng(seed)
    theta = theta0 if theta0 is not None else model.init_theta(rng)
    X, T = _stack(data.samples)
    _warn_if_unstable(model, theta)

    adam = AdamState.fresh(model.n_params, opt.beta1, opt.beta2, opt.eps, opt.eta) \
        if opt.kind == "adam" else None
    lbfgs = LBFGSState(m=opt.memory) if opt.kind == "lbfgs" else None
    prev_theta_g = None

    # the accepted theta's forward pass; the next step's gradient reuses it
    current, residual, caches = _evaluate(model, theta, X, T, loss)
    curve: list[float] = []
    if current <= target_loss:
        return TrainReport(np.asarray(curve), theta, "target_loss", current)

    stop_reason = "max_epochs"
    for _ in range(max_epochs):
        if opt.kind == "gauss_newton":
            J, r = _jacobian(model, caches, residual.shape), residual.ravel()
            if loss.nu > 0:     # the mean loss is 0.5/N ||[r; s theta]||^2, s = sqrt(N nu)
                s = np.sqrt(len(X) * loss.nu)
                J, r = np.vstack([J, s * np.eye(J.shape[1])]), np.append(r, s * theta.values)
            new_theta = gauss_newton_step(theta, r, J, opt.eta)
        else:
            g = _gradient(model, theta, residual, caches, loss)
            if opt.kind == "sgd":
                new_theta = sgd_step(theta, g, opt.eta)
            elif opt.kind == "adam":
                adam, new_theta = adam_step(adam, theta, g)
            else:
                if prev_theta_g is not None:
                    s = theta.values - prev_theta_g[0]
                    y = g - prev_theta_g[1]
                    lbfgs = lbfgs_update(lbfgs, s, y)
                direction = lbfgs_direction(lbfgs, g)
                new_theta = theta.with_values(theta.values + opt.eta * direction)
                prev_theta_g = (theta.values.copy(), g.copy())
        new_loss, new_residual, new_caches = _evaluate(model, new_theta, X, T, loss)
        if not new_loss <= DIVERGENCE_LOSS:     # NaN and inf included
            stop_reason = "divergence"
            break
        theta, residual, caches = new_theta, new_residual, new_caches
        current = new_loss
        curve.append(current)
        if current <= target_loss:
            stop_reason = "target_loss"
            break
    return TrainReport(np.asarray(curve), theta, stop_reason, current)
