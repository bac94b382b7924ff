"""Loss functions and the optimizer suite for coefficient learning.

First order: plain gradient descent theta <- theta - eta * g, and Adam with
bias-corrected moments

    m <- b1 m + (1-b1) g          mhat = m / (1 - b1^(t+1))
    v <- b2 v + (1-b2) g^2        vhat = v / (1 - b2^(t+1))
    theta <- theta - eta * mhat / (sqrt(vhat) + eps)

(defaults b1=0.9, b2=0.999, eps=1e-8; elementwise squaring and rooting).
An AdamState is validated once, when built from outside; adam_step checks
only the shapes it is handed and builds its result unchecked, since the
hyper-parameters are copied from a validated state and v >= 0 holds by
construction. A ThetaVector is only the flat values; the pipeline that reads
them (train.Pipeline.params) owns their layout.

Second order: Newton steps theta - eta H^+ grad and Gauss-Newton steps
theta - eta J^+ r for least squares, each the minimum-norm least-squares
solution from np.linalg.lstsq: the exact pseudoinverse, taken on H or J
itself, with no damping and no warning on a singular or rank-deficient matrix;
and L-BFGS via the standard two-loop recursion with curvature-guarded history
and gamma = s^T y / y^T y initial scaling.

grad_fd is the central-difference gradient oracle every analytic gradient in
this package is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls built without __post_init__.

    Only for fields whose invariants the caller has already established.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class ThetaVector:
    """Flat parameter vector; the model that reads it names its ranges."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def with_values(self, values) -> "ThetaVector":
        v = np.asarray(values, dtype=float)
        if v.shape != self.values.shape:
            raise ValueError("replacement values must keep the vector size")
        return ThetaVector(v)


def _as_theta(theta) -> ThetaVector:
    return theta if isinstance(theta, ThetaVector) else ThetaVector(theta)


@dataclass(frozen=True)
class LossSpec:
    """The L2 loss with weight decay: mean squared error plus (nu/2) ||theta||^2."""

    nu: float = 0.0

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be >= 0")


def sgd_step(theta, g: np.ndarray, eta: float) -> ThetaVector:
    """Plain gradient descent theta - eta * g."""
    th = _as_theta(theta)
    g = np.asarray(g, dtype=float)
    if g.shape != th.values.shape:
        raise ValueError("gradient size does not match theta")
    if eta <= 0:
        raise ValueError("step size eta must be positive")
    return th.with_values(th.values - eta * g)


@dataclass(frozen=True)
class AdamState:
    """Adam moments and hyper-parameters; t counts completed steps."""

    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    eta: float = 0.001
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("decay rates must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0 < self.eta < np.inf:
            raise ValueError("step size eta must be positive and finite")
        if self.t < 0:
            raise ValueError("step counter must be >= 0")
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must share a shape")
        if np.any(self.v < 0):
            raise ValueError("second moments must be >= 0")

    @classmethod
    def fresh(cls, n: int, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, eta: float = 0.001) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), beta1, beta2, eps, eta, 0)


def adam_step(state: AdamState, theta, g: np.ndarray) -> tuple[AdamState, ThetaVector]:
    """One Adam update; returns the advanced state and the new parameters."""
    th = _as_theta(theta)
    g = np.asarray(g, dtype=float)
    if g.shape != th.values.shape or g.shape != state.m.shape:
        raise ValueError("gradient size does not match theta/state")
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    t1 = state.t + 1
    mhat = m / (1.0 - state.beta1**t1)
    vhat = v / (1.0 - state.beta2**t1)
    new_values = th.values - state.eta * mhat / (np.sqrt(vhat) + state.eps)
    # m and v keep the checked shape, v >= 0 holds by construction and the
    # hyper-parameters come from a validated state, so nothing is re-checked
    advanced = _unchecked(AdamState, m=m, v=v, beta1=state.beta1, beta2=state.beta2,
                          eps=state.eps, eta=state.eta, t=t1)
    return advanced, th.with_values(new_values)


def newton_pinv_step(theta, g: np.ndarray, H: np.ndarray, eta: float) -> ThetaVector:
    """Newton update theta - eta H^+ g through the pseudoinverse of H.

    For invertible H this is theta - eta H^{-1} g; for singular H it is the
    minimum-norm step (H*H)^+ H* g.
    """
    th = _as_theta(theta)
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] != th.values.size:
        raise ValueError("H must be square and sized to theta")
    if eta <= 0:
        raise ValueError("step size eta must be positive")
    step = np.linalg.lstsq(H, g, rcond=None)[0]
    return th.with_values(th.values - eta * step)


def gauss_newton_step(theta, residuals: np.ndarray, J: np.ndarray,
                      eta: float) -> ThetaVector:
    """Gauss-Newton update theta - eta J^+ r, which is (J^T J)^{-1} J^T r
    when J has full column rank."""
    th = _as_theta(theta)
    r = np.asarray(residuals, dtype=float)
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != r.size or J.shape[1] != th.values.size:
        raise ValueError("J must be (len(residuals), len(theta))")
    if J.shape[0] < J.shape[1]:
        raise ValueError("Gauss-Newton needs at least as many residuals as parameters")
    if eta <= 0:
        raise ValueError("step size eta must be positive")
    step = np.linalg.lstsq(J, r, rcond=None)[0]
    return th.with_values(th.values - eta * step)


@dataclass(frozen=True)
class LBFGSState:
    """Curvature-pair history for the limited-memory inverse-Hessian estimate."""

    history: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    m: int = 10

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("memory size must be >= 1")
        for s, y in self.history:
            if float(np.dot(s, y)) <= 0.0:
                raise ValueError("stored pairs must satisfy s^T y > 0")


def lbfgs_update(state: LBFGSState, s: np.ndarray, y: np.ndarray) -> LBFGSState:
    """Insert a curvature pair, dropping the oldest beyond the memory size.

    Pairs with s^T y <= 0 are skipped; the inverse-Hessian estimate must stay
    positive definite.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(np.dot(s, y)) <= 0.0:
        return state
    history = state.history + ((s, y),)
    if len(history) > state.m:
        history = history[-state.m:]
    return replace(state, history=history)


def lbfgs_direction(state: LBFGSState, g: np.ndarray) -> np.ndarray:
    """Two-loop recursion direction -H~ g; plain -g with empty history."""
    g = np.asarray(g, dtype=float)
    if not state.history:
        return -g
    q = g.copy()
    alphas = []
    rhos = []
    for s, y in reversed(state.history):
        rho = 1.0 / float(np.dot(y, s))
        alpha = rho * float(np.dot(s, q))
        q -= alpha * y
        alphas.append(alpha)
        rhos.append(rho)
    s_new, y_new = state.history[-1]
    gamma = float(np.dot(s_new, y_new)) / float(np.dot(y_new, y_new))
    r = gamma * q
    for (s, y), alpha, rho in zip(state.history, reversed(alphas), reversed(rhos)):
        beta = rho * float(np.dot(y, r))
        r += s * (alpha - beta)
    return -r


def grad_fd(loss_fn, theta, eps: float) -> np.ndarray:
    """Central-difference gradient (L(t+eps e_i) - L(t-eps e_i)) / (2 eps).

    The independent oracle for every analytic gradient here; raises with the
    offending coordinate index when an evaluation is non-finite.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    th = _as_theta(theta)
    base = th.values
    wrap = (lambda v: loss_fn(th.with_values(v))) if isinstance(theta, ThetaVector) \
        else (lambda v: loss_fn(v))
    grad = np.empty(base.size)
    for i in range(base.size):
        vp = base.copy()
        vp[i] += eps
        vm = base.copy()
        vm[i] -= eps
        fp = float(wrap(vp))
        fm = float(wrap(vm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite loss at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad
