"""Acceptance checks: every claim the package makes, with its tolerance.

Each check pits an implementation path against an independent route: fixed
tap tables for the running steps' impulse responses, the closed-form heat
kernel, a front tracker for the logistic RDE, the divergence-form operator
for the conv1d block, a dense k*O_L branch iterated as a ResNet for the
forward solve, scalar loop oracles for the dense block (its
per-channel kernel sums) and the RNN cell, central differences for analytic
gradients, normal equations and a dense BFGS recursion for the optimizers,
and conservation/stability properties of the schemes. The CLI ``verify``
command prints one PASS/FAIL line per check and the acceptance test suite
asserts them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import blocks, optim, reference, solver, stencil, train
from .grid import dirichlet, extend, make_grid, periodic
from .reactions import fisher, gray_scott, gray_scott_start, sigmoid_reaction
from .stencil import EllipticCoefficients, elliptic_apply


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tol: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({self.note})" if self.note else ""
        return (f"{status} {self.name}: measured={self.measured:.17g} "
                f"tol={self.tol:.17g}{note}")


# --- criterion 1: stencil fidelity -----------------------------------------

# the stencils' tables, unscaled
_TAPS = {"3pt": np.array([1.0, -2.0, 1.0]),
         "5pt": np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]),
         "9pt": np.array([[0.25, 0.5, 0.25], [0.5, -3.0, 0.5], [0.25, 0.5, 0.25]])}


def check_stencils() -> list[CheckResult]:
    """The taps of the steps that run, each step's response to a unit impulse at
    r = 1 (h = k = 1, A = 1, no identity); the tables are symmetric, so the
    response is the table, which it must equal exactly."""
    out = []
    for name, table in _TAPS.items():
        grid = make_grid(5, 1.0, 1.0, periodic(), ndim=table.ndim)
        A = np.ones(grid.shape)
        step = (stencil._Step1D(stencil._step_taps(A, None, grid, identity=0.0), grid)
                if name == "3pt" else stencil._Step2D(A, grid, name).diffusion)
        impulse = np.zeros(grid.shape)
        impulse[(2,) * grid.ndim] = 1.0
        d = float(np.max(np.abs(step(impulse) - np.pad(table, 1))))
        out.append(CheckResult(f"stencil-{name}-taps", d == 0.0, d, 0.0))
    return out


# --- criterion 2: heat-kernel convergence ----------------------------------

def _heat_error(h: float) -> float:
    width, D, T = 20.0, 1.0, 0.5
    n = int(round(width / h))
    k = 0.25 * h**2                    # r = 0.25
    n_steps = int(round(T / k))
    grid = make_grid(n, h, k, periodic())
    x = -width / 2 + h * np.arange(n)
    profile = reference.GaussianProfile(1.0, 0.0, 1.0)
    u0 = profile.sample(x)
    coeffs = EllipticCoefficients.constant(grid, D)
    traj = solver.solve_forward(u0, coeffs, grid, n_steps)
    exact = reference.heat_kernel_evolve(profile, D, n_steps * k).sample(x)
    return float(np.max(np.abs(traj.final() - exact)))


def check_heat_kernel() -> list[CheckResult]:
    err_h = _heat_error(0.05)
    err_h2 = _heat_error(0.025)
    ratio = err_h / err_h2
    return [
        CheckResult("heat-kernel-linf-error", err_h <= 1e-3, err_h, 1e-3,
                    "h=0.05, r=0.25, T=0.5"),
        CheckResult("heat-kernel-h2-order", 3.2 <= ratio <= 4.8, ratio, 4.8,
                    "error ratio under h-halving, expected in [3.2, 4.8]"),
    ]


# --- criterion 3: Fisher front speed ----------------------------------------

def check_fisher_front() -> list[CheckResult]:
    r_fisher, D = 1.0, 1.0
    n, h = 4000, 0.1
    k = 0.004                          # r = 0.4 <= 0.5
    grid = make_grid(n, h, k, extend())
    x = h * np.arange(n)
    u = np.where(x <= 20.0, 1.0, 0.0)
    coeffs = EllipticCoefficients.constant(grid, D, reaction=fisher(r_fisher))
    # one streamed march, sampled every 250 of its 30,000 steps
    slices = solver.forward_slices(u, coeffs, grid, 30000)
    positions = [reference.front_position(s, h)
                 for s in itertools.islice(slices, 250, None, 250)]
    times = k * np.arange(250, 30001, 250)
    speed = reference.front_speed(positions, times)
    target = reference.fisher_min_front_speed(r_fisher, D)
    rel = abs(speed - target) / target
    return [CheckResult("fisher-front-speed", rel <= 0.05, speed, 0.05,
                        f"target {target}, rel err {rel:.4f}")]


# --- criterion 4: generator/solver equivalence -------------------------------

def _rnn_scalar_oracle(u, u_prev, f, Dxy, Dz, v, h, k):
    """Scalar loop solving the traveling-wave recurrence for u_{tau+1} on a
    periodic transverse grid."""
    n = u.size
    out = np.empty(n)
    for j in range(n):
        lap = (u[j - 1] - 2.0 * u[j] + u[(j + 1) % n]) / h**2
        denom = v / k + Dz / h**2
        out[j] = ((v / k + 2.0 * Dz / h**2) * u[j] - Dxy * lap
                  - (Dz / h**2) * u_prev[j] - f[j]) / denom
    return out


def check_equivalence() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20240401)
    bcs = [periodic(), dirichlet(0.0), extend(), dirichlet(0.5)]

    worst = 0.0
    for trial in range(100):
        n = 24
        grid = make_grid(n, 0.5, 0.05, bcs[trial % len(bcs)])
        A = rng.uniform(0.0, 1.0, n)
        B = rng.uniform(-0.5, 0.5, n) if trial % 2 == 0 else None
        coeffs = EllipticCoefficients(A, B)
        u = rng.standard_normal(n)
        block = blocks.gen_conv1d(coeffs, grid)
        # the solver steps with the block's own taps, so the independent side
        # is the divergence-form operator
        divergence_form = u + grid.k * elliptic_apply(u, coeffs, grid)
        diff = np.max(np.abs(block.forward(u) - divergence_form))
        worst = max(worst, float(diff))
    out.append(CheckResult("conv1d-vs-explicit-step", worst <= 1e-12, worst, 1e-12,
                           "100 seeded coefficient fields vs u + k*elliptic_apply(u)"))

    worst = 0.0
    for _ in range(20):
        l = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        block = blocks.gen_dense(rng.standard_normal((l, m)), rng.standard_normal(l),
                                 sigmoid_reaction(1.0))
        u = rng.standard_normal(m)
        # the per-channel view: one kernel sum per row of W
        channels = np.array([float(np.dot(row, u)) for row in block.W]) + block.bias
        diff = np.max(np.abs(block.forward(u) - block.activation.activate(channels)))
        worst = max(worst, float(diff))
    out.append(CheckResult("dense-two-path", worst <= 1e-12, worst, 1e-12,
                           "matrix product vs per-channel kernel sums"))

    n = 16
    grid = make_grid(n, 0.5, 0.05, periodic())
    cell = blocks.gen_rnn_cell(0.7, 0.3, 1.3, grid)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(n)
        u_prev = rng.standard_normal(n)
        f = rng.standard_normal(n)
        state = blocks.rnn_forward(cell, np.concatenate([u, u_prev]), f)
        u_next = _rnn_scalar_oracle(u, u_prev, f, 0.7, 0.3, 1.3, grid.h, grid.k)
        diff = max(float(np.max(np.abs(state[:n] - u_next))),
                   float(np.max(np.abs(state[n:] - u))))
        worst = max(worst, diff)
    out.append(CheckResult("rnn-vs-scalar-recurrence", worst <= 1e-10, worst, 1e-10,
                           "100 random seeded steps"))

    # 2D conv block against u + r * (9-point table summed over a wrapped pad of A u)
    n2 = 12
    grid2 = make_grid(n2, 0.5, 0.02, periodic(), ndim=2)
    coeffs2 = EllipticCoefficients.constant(grid2, 0.8)
    block2 = blocks.gen_conv2d(coeffs2, grid2, "9pt")
    u2 = rng.standard_normal((n2, n2))
    P = np.pad(coeffs2.A * u2, 1, mode="wrap")
    route = u2 + grid2.r * sum(_TAPS["9pt"][i, j] * P[i:i + n2, j:j + n2]
                               for i in range(3) for j in range(3))
    diff2 = float(np.max(np.abs(block2.forward(u2) - route)))
    out.append(CheckResult("conv2d-vs-explicit-step", diff2 <= 1e-12, diff2, 1e-12))

    # ResNet iteration x + F(x), F a generated dense k*O_L branch, against the
    # forward solve, whose folded 3-tap apply is a route apart
    n = 20
    grid = make_grid(n, 0.5, 0.05, periodic())
    A = rng.uniform(0.2, 1.0, n)
    coeffs = EllipticCoefficients(A)
    branch = blocks.gen_dense(stencil._band_matrix(stencil._step_taps(A, None, grid, 0.0),
                                                   grid.bc), np.zeros(n))
    u = rng.standard_normal(n)
    x = u.copy()
    for _ in range(10):
        x = x + branch.forward(x)
    traj = solver.solve_forward(u, coeffs, grid, 10)
    diff = float(np.max(np.abs(x - traj.final())))
    out.append(CheckResult("residual-iterate-vs-solve", diff <= 1e-10, diff, 1e-10,
                           "10 steps"))
    return out


# --- criterion 5: gradient exactness -----------------------------------------

def _grad_mismatch(model, theta, samples, loss_spec):
    analytic = train.batch_gradient(model, theta, samples, loss_spec)
    fd = optim.grad_fd(lambda t: train.batch_loss(model, t, samples, loss_spec),
                       theta, 1e-6)
    gap = np.abs(analytic - fd)
    allowed = np.maximum(1e-5 * np.abs(fd), 1e-8)
    # report the worst margin as a ratio (<= 1 passes)
    return float(np.max(gap / allowed))


def check_gradients() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(7)

    model = train.Pipeline.dense([3, 5, 2],
                                 [sigmoid_reaction(1.0), sigmoid_reaction(1.0)])
    theta = model.init_theta(rng)
    samples = [(rng.standard_normal(3), rng.standard_normal(2)) for _ in range(4)]
    margin = _grad_mismatch(model, theta, samples, optim.LossSpec(nu=0.1))
    out.append(CheckResult("gradient-dense-2layer-sigmoid", margin <= 1.0,
                           margin, 1.0, "worst |analytic-fd| over allowance"))

    grid = make_grid(24, 0.5, 0.05, periodic())
    model = train.Pipeline([train.DiffusionLayer(grid, 3)])
    theta = model.init_theta(rng).with_values(rng.uniform(0.2, 1.0, 24))
    u0 = rng.standard_normal(24)
    target = rng.standard_normal(24)
    margin = _grad_mismatch(model, theta, [(u0, target)], optim.LossSpec())
    out.append(CheckResult("gradient-3step-diffusion", margin <= 1.0,
                           margin, 1.0, "learnable-A unroll vs grad_fd"))
    return out


# --- criterion 6: optimizer contracts ----------------------------------------

def check_optimizers() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(11)

    J = rng.standard_normal((20, 5))
    b = rng.standard_normal(20)
    theta0 = rng.standard_normal(5)
    theta1 = optim.gauss_newton_step(theta0, J @ theta0 - b, J, 1.0)
    grad_norm = float(np.max(np.abs(J.T @ (J @ theta1.values - b))))
    out.append(CheckResult("gauss-newton-one-step", grad_norm <= 1e-10,
                           grad_norm, 1e-10, "residual gradient after one step"))

    Q = rng.standard_normal((4, 4))
    H = Q.T @ Q + 4.0 * np.eye(4)
    lin = rng.standard_normal(4)
    theta0 = rng.standard_normal(4)
    theta1 = optim.newton_pinv_step(theta0, H @ theta0 - lin, H, 1.0)
    gap = float(np.max(np.abs(theta1.values - np.linalg.solve(H, lin))))
    out.append(CheckResult("newton-pinv-quadratic", gap <= 1e-10, gap, 1e-10,
                           "one step lands on the minimizer"))

    g = np.array([1.0, -1.0, 1.0])
    state = optim.AdamState.fresh(3)
    _, theta1 = optim.adam_step(state, np.zeros(3), g)
    expected = -state.eta * g / (1.0 + state.eps)
    gap = float(np.max(np.abs(theta1.values - expected)))
    out.append(CheckResult("adam-fresh-step", gap <= 1e-12, gap, 1e-12,
                           "step = -eta * sign/(1+eps) on unit gradients"))

    H3 = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    state = optim.LBFGSState(m=10)
    pairs = []
    for _ in range(3):
        s = rng.standard_normal(3)
        y = H3 @ s
        state = optim.lbfgs_update(state, s, y)
        pairs.append((s, y))
    g = rng.standard_normal(3)
    direction = optim.lbfgs_direction(state, g)
    s_new, y_new = pairs[-1]
    gamma = float(s_new @ y_new) / float(y_new @ y_new)
    Hinv = gamma * np.eye(3)
    for s, y in pairs:
        rho = 1.0 / float(s @ y)
        V = np.eye(3) - rho * np.outer(s, y)
        Hinv = V @ Hinv @ V.T + rho * np.outer(s, s)
    gap = float(np.max(np.abs(direction - (-Hinv @ g))))
    out.append(CheckResult("lbfgs-vs-dense-bfgs", gap <= 1e-8, gap, 1e-8,
                           "two-loop vs dense recursion, 3-parameter quadratic"))
    return out


# --- criterion 7: XOR training at desk scale ---------------------------------

XOR_SEEDS = (0, 1, 2, 3, 4)


def check_xor_training() -> list[CheckResult]:
    xor_samples = [(np.array([0.0, 0.0]), np.array([0.0])),
                   (np.array([0.0, 1.0]), np.array([1.0])),
                   (np.array([1.0, 0.0]), np.array([1.0])),
                   (np.array([1.0, 1.0]), np.array([0.0]))]
    data = train.Dataset(xor_samples)
    model = train.Pipeline.dense([2, 4, 1], [sigmoid_reaction(1.0)] * 2)
    opt = train.OptimizerConfig("adam")
    hits = 0
    for seed in XOR_SEEDS:
        report = train.train_supervised(model, data, optim.LossSpec(), opt,
                                        seed=seed, max_epochs=5000,
                                        target_loss=0.05)
        if report.converged:
            hits += 1
    return [CheckResult("xor-adam-seeds", hits >= 4, float(hits), 4.0,
                        f"{hits}/5 seeds reached loss < 0.05 within 5000 epochs")]


# --- criterion 8: stability dichotomy ----------------------------------------

def check_stability() -> list[CheckResult]:
    out = []
    n = 64
    grid = make_grid(n, 1.0, 0.6, periodic())          # r = 0.6 > 1/2
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    u0 = np.zeros(n)
    u0[n // 2] = 1.0
    step_hit = -1
    try:
        solver.solve_forward(u0, coeffs, grid, 200)
    except solver.DivergenceError as err:
        step_hit = err.step
    out.append(CheckResult("explicit-divergence-detected",
                           0 < step_hit <= 200, float(step_hit), 200.0,
                           f"r=0.6 flagged at step {step_hit}"))

    grid = make_grid(n, 1.0, 5.0, dirichlet(0.0))      # r = 5
    coeffs = EllipticCoefficients.constant(grid, 1.0)
    rng = np.random.default_rng(3)
    u0 = rng.uniform(0.0, 1.0, n)
    slices = solver.forward_slices(u0, coeffs, grid, 100, scheme="implicit")
    peak = max(float(np.max(np.abs(s))) for s in slices)
    bound = float(np.max(np.abs(u0)))
    out.append(CheckResult("implicit-unconditional-stability",
                           peak <= bound + 1e-12, peak, bound,
                           "r=5, 100 implicit steps bounded by initial max"))
    return out


# --- criterion 9: conservation ------------------------------------------------

def check_conservation() -> list[CheckResult]:
    rng = np.random.default_rng(17)
    n = 128
    A = rng.uniform(0.2, 1.0, n)
    k = 0.4 / float(np.max(A))        # r * max(A) = 0.4
    grid = make_grid(n, 1.0, k, periodic())
    coeffs = EllipticCoefficients(A)
    u = rng.uniform(0.5, 1.5, n)
    total0 = float(np.sum(u))
    slices = itertools.islice(solver.forward_slices(u, coeffs, grid, 1000), 1, None)
    worst = max(abs(float(np.sum(s)) - total0) / abs(total0) for s in slices)
    return [CheckResult("mass-conservation", worst <= 1e-10, worst, 1e-10,
                        "periodic, varying A, 1000 explicit steps")]


# --- criterion 10: Turing pattern ----------------------------------------------

def check_turing() -> list[CheckResult]:
    n, n_steps = 128, 8000
    grid = make_grid(n, 2.5 / n, 1.0, periodic(), ndim=2)
    # five small V seeds plus low-amplitude noise on a uniform background
    centres = [(i * n // 4, j * n // 4) for i, j in ((2, 2), (1, 1), (1, 3), (3, 1), (3, 3))]
    U, V = gray_scott_start(n, np.random.default_rng(42), centres, 3)
    var0 = float(np.var(V))
    _, V_final, _ = solver.solve_two_component(U, V, 2e-5, 1e-5,
                                               gray_scott(0.04, 0.06), grid, n_steps)
    var_final = float(np.var(V_final))
    ratio = var_final / var0
    return [CheckResult("turing-pattern-variance", ratio >= 10.0, ratio, 10.0,
                        f"F=0.04 kr=0.06 Du=2e-5 Dv=1e-5, {n_steps} steps")]


SUITES = {
    "stencils": (check_stencils,),
    "equivalence": (check_equivalence,),
    "gradients": (check_gradients, check_optimizers, check_xor_training),
    "oracles": (check_heat_kernel, check_fisher_front, check_stability,
                check_conservation, check_turing),
}
SUITES["all"] = sum(SUITES.values(), ())
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    results = []
    for fn in SUITES[name]:
        results.extend(fn())
    return results
