"""The four benchmark workloads and their correctness oracles.

Each workload is a closed loop with one caller. ``setup(seed, tmp)`` builds
every input from the seed and returns the workload's operations; each
operation is a zero-argument callable timed as part of the workload run, and
each oracle checks the outputs afterwards, outside the timed region. npde
only ever sees the generated inputs.

Sizes are the acceptance runs themselves (criteria 2, 3, 7 and 10 and the
README solve); README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from npde import blocks, cli, optim, reference, solver, train
from npde.grid import extend, make_grid, periodic
from npde.reactions import fisher, gray_scott, sigmoid_reaction
from npde.stencil import EllipticCoefficients


@dataclass(frozen=True)
class Check:
    """One oracle verdict: ``measured`` against ``tol`` with a short note."""

    name: str
    passed: bool
    measured: float
    tol: float
    note: str = ""


@dataclass(frozen=True)
class Operation:
    """One unit of work: ``run`` is timed, ``check(outputs)`` is not.

    ``outputs`` maps every operation name of the rep to what its ``run``
    returned, so an oracle may compare two operations (block vs solver).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[dict], list]


# --- medium-1d ---------------------------------------------------------------

FISHER_N, FISHER_H, FISHER_K = 4000, 0.1, 0.004    # criterion 3, r = 0.4
FISHER_STEPS, FISHER_SAMPLE = 30000, 250           # 250 = criterion 3's sampling
FIT_N, FIT_H, FIT_K = 400, 0.05, 0.0005            # r = 0.2
FIT_STEPS, FIT_SAMPLES, FIT_EPOCHS, FIT_ETA = 50, 4, 60, 0.01


def _front_speed(snapshots: list, h: float, k: float) -> float:
    times = FISHER_SAMPLE * k * np.arange(1, len(snapshots) + 1)
    positions = [reference.front_position(u, h) for u in snapshots]
    return reference.front_speed(np.asarray(positions), times)


def _front_check(name: str, snapshots: list, h: float, k: float) -> Check:
    target = reference.fisher_min_front_speed(1.0, 1.0)
    speed = _front_speed(snapshots, h, k)
    rel = abs(speed - target) / target
    return Check(name, rel <= 0.05, rel, 0.05, f"speed {speed:.6f} vs 2*sqrt(rD)={target}")


def _smooth_field(rng: np.random.Generator, n: int) -> np.ndarray:
    """Band-limited random field: twelve Fourier modes of wavenumber 5..79."""
    j = np.arange(n)
    u = np.zeros(n)
    for m in rng.integers(5, 80, 12):
        u += rng.uniform(-1.0, 1.0) * np.sin(2.0 * np.pi * m * j / n + rng.uniform(0.0, 2.0 * np.pi))
    return u


def medium_1d(seed: int, tmp: Path) -> list:
    rng = np.random.default_rng(seed)
    grid = make_grid(FISHER_N, FISHER_H, FISHER_K, extend())
    coeffs = EllipticCoefficients.constant(grid, 1.0, reaction=fisher(1.0))
    x = grid.h * np.arange(grid.n_points)
    u0 = np.where(x <= rng.uniform(15.0, 25.0), 1.0, 0.0)

    def solver_front():
        # one 30k-step call would keep ~960 MB of slices; chunk at the sampling interval
        u, snaps = u0, []
        for _ in range(FISHER_STEPS // FISHER_SAMPLE):
            u = solver.solve_forward(u, coeffs, grid, FISHER_SAMPLE).final()
            snaps.append(u)
        return snaps

    def block_front():
        block = blocks.gen_conv1d(coeffs, grid)
        u, snaps = u0, []
        for step in range(1, FISHER_STEPS + 1):
            u = block.forward(u)
            if step % FISHER_SAMPLE == 0:
                snaps.append(u)
        return snaps

    fgrid = make_grid(FIT_N, FIT_H, FIT_K, periodic())
    j = np.arange(FIT_N)
    hidden_A = 0.5 + 0.2 * np.sin(2.0 * np.pi * j / FIT_N + rng.uniform(0.0, 2.0 * np.pi))
    samples = []
    for _ in range(FIT_SAMPLES):
        v0 = _smooth_field(rng, FIT_N)
        target = solver.solve_forward(v0, EllipticCoefficients(hidden_A), fgrid, FIT_STEPS).final()
        samples.append((v0, target))
    data = train.Dataset(samples)
    model = train.Pipeline([train.DiffusionLayer(fgrid, FIT_STEPS)])
    theta0 = model.init_theta(rng).with_values(np.full(FIT_N, 0.5))
    direction = rng.standard_normal(FIT_N)
    loss = optim.LossSpec()

    def fit():
        # target_loss 0 is never met, so every seed runs the same 60 epochs
        return train.train_supervised(model, data, loss, train.OptimizerConfig("adam", eta=FIT_ETA),
                                      seed=seed, max_epochs=FIT_EPOCHS, target_loss=0.0,
                                      theta0=theta0)

    def check_solver(out):
        return [_front_check("solver-front-speed", out["solver-front"], grid.h, grid.k)]

    def check_block(out):
        gap = float(np.max(np.abs(out["block-front"][-1] - out["solver-front"][-1])))
        return [_front_check("block-front-speed", out["block-front"], grid.h, grid.k),
                Check("block-vs-solver-final-gap", gap <= 1e-12, gap, 1e-12,
                      f"after {FISHER_STEPS} steps")]

    def check_fit(out):
        report = out["fit"]
        loss0 = train.batch_loss(model, theta0, samples, loss)
        fell = loss0 / report.final_loss if report.final_loss > 0 else np.inf
        g = train.batch_gradient(model, theta0, samples, loss)
        eps = 1e-6
        plus = train.batch_loss(model, theta0.with_values(theta0.values + eps * direction), samples, loss)
        minus = train.batch_loss(model, theta0.with_values(theta0.values - eps * direction), samples, loss)
        fd = (plus - minus) / (2.0 * eps)
        gap = abs(float(g @ direction) - fd)
        allowed = max(1e-5 * abs(fd), 1e-8)
        return [Check("fit-epochs", report.epochs == FIT_EPOCHS, report.epochs, FIT_EPOCHS,
                      report.stop_reason),
                Check("fit-loss-fell-10x", fell >= 10.0, fell, 10.0,
                      f"loss {loss0:.6g} -> {report.final_loss:.6g}"),
                Check("fit-first-gradient-vs-fd", gap <= allowed, gap / allowed, 1.0,
                      "directional derivative, |analytic-fd| over allowance")]

    return [Operation("solver-front", solver_front, check_solver),
            Operation("block-front", block_front, check_block),
            Operation("fit", fit, check_fit)]


# --- turing-2d ---------------------------------------------------------------

TURING_N, TURING_STEPS = 128, 8000
TURING_F, TURING_KR, TURING_DU, TURING_DV = 0.04, 0.06, 2e-5, 1e-5


def turing_2d(seed: int, tmp: Path) -> list:
    n = TURING_N
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 2.5 / n, 1.0, periodic(), ndim=2)
    U = np.ones((n, n))
    V = np.zeros((n, n))
    # criterion 10's five square V seeds; the benchmark seed draws the noise
    for ci, cj in ((n // 2, n // 2), (n // 4, n // 4), (n // 4, 3 * n // 4),
                   (3 * n // 4, n // 4), (3 * n // 4, 3 * n // 4)):
        U[ci - 3:ci + 3, cj - 3:cj + 3] = 0.5
        V[ci - 3:ci + 3, cj - 3:cj + 3] = 0.25
    U = np.clip(U + 0.02 * (rng.random((n, n)) - 0.5), 0.0, 1.0)
    V = np.clip(V + 0.02 * (rng.random((n, n)) - 0.5), 0.0, 1.0)
    rxn = gray_scott(TURING_F, TURING_KR)

    def run():
        return solver.solve_two_component(U, V, TURING_DU, TURING_DV, rxn, grid, TURING_STEPS)

    def check(out):
        _, V_final, _ = out["gray-scott"]
        ratio = float(np.var(V_final)) / float(np.var(V))
        return [Check("turing-v-variance-ratio", bool(ratio >= 10.0), ratio, 10.0,
                      f"F={TURING_F} kr={TURING_KR}, {TURING_STEPS} steps")]

    return [Operation("gray-scott", run, check)]


# --- xor-train ---------------------------------------------------------------

XOR_SEEDS, XOR_MAX_EPOCHS, XOR_TARGET = 5, 5000, 0.05
XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0.0, 1.0, 1.0, 0.0])
XOR_CURVE_RTOL = 1e-9          # measured gap ~3e-15 over 5000 epochs


def _xor_reference_curve(seed: int, epochs: int) -> np.ndarray:
    """Loss curve of full-batch Adam on the 2-4-1 sigmoid net, without npde.

    The four samples are one matrix. Initialisation follows the documented
    rule of ``Pipeline.init_theta`` (uniform +-1/sqrt(fan_in) per tensor, in
    layer order, drawn from ``default_rng(seed)``); the loss is the mean half
    squared error; Adam uses the defaults of ``OptimizerConfig``.
    """
    rng = np.random.default_rng(seed)
    theta = np.concatenate([rng.uniform(-2 ** -0.5, 2 ** -0.5, 8),
                            rng.uniform(-2 ** -0.5, 2 ** -0.5, 4),
                            rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.5, 0.5, 1)])
    n = len(XOR_Y)

    def forward(theta):
        hidden = 1.0 / (1.0 + np.exp(-(XOR_X @ theta[:8].reshape(4, 2).T + theta[8:12])))
        out = 1.0 / (1.0 + np.exp(-(hidden @ theta[12:16] + theta[16])))
        return hidden, out

    m, v, curve = np.zeros(17), np.zeros(17), np.empty(epochs)
    beta1, beta2, eta, eps = 0.9, 0.999, 1e-3, 1e-8
    for t in range(1, epochs + 1):
        hidden, out = forward(theta)
        g_out = (out - XOR_Y) * out * (1.0 - out) / n
        g_hidden = np.outer(g_out, theta[12:16]) * hidden * (1.0 - hidden)
        g = np.concatenate([(g_hidden.T @ XOR_X).ravel(), g_hidden.sum(axis=0),
                            hidden.T @ g_out, [g_out.sum()]])
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        theta = theta - eta * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
        r = forward(theta)[1] - XOR_Y
        curve[t - 1] = 0.5 * float(r @ r) / n
    return curve


def xor_train(seed: int, tmp: Path) -> list:
    samples = [(x, np.array([y])) for x, y in zip(XOR_X, XOR_Y)]
    data = train.Dataset(samples)
    hidden = blocks.gen_dense(np.zeros((4, 2)), np.zeros(4), sigmoid_reaction(1.0))
    readout = blocks.gen_dense(np.zeros((1, 4)), np.zeros(1), sigmoid_reaction(1.0))
    model = train.Pipeline.from_blocks([hidden, readout])
    opt = train.OptimizerConfig("adam")
    seeds = [XOR_SEEDS * seed + i for i in range(XOR_SEEDS)]
    criterion_seeds = seeds == list(range(XOR_SEEDS))     # criterion 7's own seeds 0..4

    def run():
        # Fixed work: every seed trains the full 5000-epoch cap (target 0 is never
        # met), so wall time does not depend on how fast a seed converges.
        # Criterion 7's early stop at 0.05 is read off the loss curve instead.
        return [train.train_supervised(model, data, optim.LossSpec(), opt, seed=s,
                                       max_epochs=XOR_MAX_EPOCHS, target_loss=0.0)
                for s in seeds]

    def check(out):
        reports = out["criterion-7"]
        gaps = []
        for s, r in zip(seeds, reports):
            ref = _xor_reference_curve(s, XOR_MAX_EPOCHS)
            gaps.append(float(np.max(np.abs(r.loss_curve - ref) / ref))
                        if len(r.loss_curve) == len(ref) else np.inf)
        hits = [bool(np.any(r.loss_curve <= XOR_TARGET)) for r in reports]
        to_target = [int(np.argmax(r.loss_curve <= XOR_TARGET)) + 1
                     for r, hit in zip(reports, hits) if hit]
        reached = (f"seeds {seeds[0]}..{seeds[-1]}: {sum(hits)}/{XOR_SEEDS} reached "
                   f"{XOR_TARGET} within {XOR_MAX_EPOCHS} epochs; epochs to target "
                   f"{to_target}, total {sum(to_target)}")
        checks = [Check("xor-curves-vs-reference", max(gaps) <= XOR_CURVE_RTOL, max(gaps),
                        XOR_CURVE_RTOL, "worst relative loss gap to a numpy Adam; " + reached),
                  Check("xor-epochs", all(r.epochs == XOR_MAX_EPOCHS for r in reports),
                        sum(r.epochs for r in reports), XOR_SEEDS * XOR_MAX_EPOCHS)]
        if criterion_seeds:
            # 4 of 5 is criterion 7's claim about its seeds; about 3% of other
            # seeds stall in a local minimum, so other windows are not held to it
            checks.append(Check("xor-seeds-converged", sum(hits) >= 4, sum(hits), 4, reached))
        return checks

    return [Operation("criterion-7", run, check)]


# --- solve-cli ---------------------------------------------------------------

HEAT_N, HEAT_H, HEAT_K, HEAT_STEPS = 400, 0.05, 0.000625, 800   # criterion 2: r = 0.25, T = 0.5
HEAT_TOL = 1e-3                                                 # criterion 2's L-inf bound


def _heat_config(scheme: str, centre: float) -> dict:
    return {
        "grid": {"n_points": HEAT_N, "h": HEAT_H, "k": HEAT_K, "bc": "periodic"},
        "model": {"kind": "heat", "A": 1.0},
        "run": {"n_steps": HEAT_STEPS, "scheme": scheme, "seed": 0,
                "initial": {"kind": "gaussian", "amplitude": 1.0,
                            "center": centre, "sigma2": 1.0}},
        "io": {"out_dir": "out"},
    }


def _slice_values(row: str) -> np.ndarray:
    """A trajectory CSV row without its leading slice index."""
    return np.array([float(v) for v in row.split(",")[1:]])


def _read_trajectory(path: Path):
    """Row count plus the first and last slices of a trajectory CSV."""
    with open(path) as fh:
        first = fh.readline()
        rows, last = 1, first
        for line in fh:
            rows += 1
            last = line
    return rows, _slice_values(first), _slice_values(last)


def solve_cli(seed: int, tmp: Path) -> list:
    rng = np.random.default_rng(seed)
    # the centre stays >= 8 from the periodic seam, so wrapped tails stay < 1e-6
    centre = float(rng.uniform(8.0, 12.0))
    ops = []
    for scheme in ("explicit", "implicit"):
        cfg_path = tmp / f"{scheme}.json"
        cfg_path.write_text(json.dumps(_heat_config(scheme, centre)))
        out_dir = tmp / f"{scheme}-out"
        argv = ["solve", "--config", str(cfg_path), "--out", str(out_dir)]

        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(out, scheme=scheme, out_dir=out_dir):
            rc = out[scheme]
            checks = [Check(f"{scheme}-exit-code", rc == 0, rc, 0)]
            if rc != 0:
                return checks
            rows, first, last = _read_trajectory(out_dir / "trajectory.csv")
            mass0, mass1 = float(np.sum(first)) * HEAT_H, float(np.sum(last)) * HEAT_H
            drift = abs(mass1 - mass0) / abs(mass0)
            checks += [Check(f"{scheme}-csv-rows", rows == HEAT_STEPS + 1, rows, HEAT_STEPS + 1),
                       Check(f"{scheme}-mass-conserved", drift <= 1e-10, drift, 1e-10,
                             "relative drift of sum(u)*h")]
            if scheme == "explicit":
                x = HEAT_H * np.arange(HEAT_N)
                exact = reference.heat_kernel_evolve(reference.GaussianProfile(1.0, centre, 1.0),
                                                     1.0, HEAT_STEPS * HEAT_K).sample(x)
                err = float(np.max(np.abs(last - exact)))
                checks.append(Check("explicit-heat-kernel-linf", err <= HEAT_TOL, err, HEAT_TOL,
                                    f"centre {centre:.6f}, h=0.05, r=0.25, T=0.5"))
            return checks

        ops.append(Operation(scheme, run, check))
    return ops


WORKLOADS = {
    "medium-1d": medium_1d,
    "turing-2d": turing_2d,
    "xor-train": xor_train,
    "solve-cli": solve_cli,
}


def extra_metrics(workload: str, outputs: dict, op_seconds: dict, tmp: Path) -> dict:
    """Workload-specific figures beside the common ones, with their bases."""
    if workload == "xor-train" and "criterion-7" in outputs:
        epochs = sum(r.epochs for r in outputs["criterion-7"])
        return {"epoch_ms": 1e3 * op_seconds["criterion-7"] / epochs, "epochs": epochs}
    if workload == "solve-cli":
        written = sum(f.stat().st_size for d in tmp.glob("*-out") for f in d.rglob("*") if f.is_file())
        return {"output_mb": written / 1e6}
    return {}
