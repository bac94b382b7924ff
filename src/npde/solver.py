"""Time stepping for the quasi-linear PDE and two-component systems.

Explicit (forward Euler) step, with r = k/h**2:

    u_j' = (1 - 2 r A_j) u_j + r A_{j-1} u_{j-1} + r A_{j+1} u_{j+1}
           + k * (B-term + C-term)

Implicit (backward Euler) step solves the tridiagonal system

    u_j = (1 + 2 r A_j) u'_j - r A_{j-1} u'_{j-1} - r A_{j+1} u'_{j+1}

by the Thomas algorithm (Sherman-Morrison correction for periodic grids).
The reaction C is always evaluated on the pre-update slice (IMEX splitting
for the implicit scheme): diffusion and convection first, nonlinearity on the
old slice within the same step.

Two-component systems step both channels explicitly with the 9-point
transverse Laplacian:

    U' = U + k (Du lap U + f(U, V)),  V' = V + k (Dv lap V + g(U, V)).

U and V are stacked into one (2, n, n) state that a solve advances in place,
reusing one padded buffer and one scratch buffer for every step. The 9-point
stencil is separable, outer([1/2, 1, 1/2], [1/2, 1, 1/2]) minus 4 times the
centre, so the Laplacian is one 3-tap pass along x, one along y and a
subtraction; its rounding differs from the 9-tap sum by a few ulps.

Explicit stability requires r * max(A) <= 1/2 in 1D and <= 1/4 in 2D; the
implicit scheme is unconditionally stable. Divergence (non-finite values, or
magnitudes beyond DIVERGENCE_FACTOR times the initial scale) is reported
with the failing step index, never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# pad stays part of this module's namespace (npde.solver.pad); no step here calls it
from .grid import BoundaryCondition, GridSpec, pad, pad_coefficient  # noqa: F401
from .reactions import TwoComponentReaction
from .stencil import EllipticCoefficients, elliptic_apply

# A step is declared divergent when max|u| exceeds this factor times the
# initial scale, long before float64 overflow turns values non-finite.
DIVERGENCE_FACTOR = 1e12


class DivergenceError(ArithmeticError):
    """Raised when a step produces non-finite or runaway values."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class Trajectory:
    """Ordered time slices of a forward solve; slices[0] is the initial state."""

    grid: GridSpec
    slices: list[np.ndarray] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.slices) - 1

    def final(self) -> np.ndarray:
        return self.slices[-1]


@dataclass(frozen=True)
class CflReport:
    stable: bool
    max_r_a: float
    limit: float


def cfl_check(coeffs: EllipticCoefficients, grid: GridSpec) -> CflReport:
    """Explicit stability: r * max(A) <= 1/2 (1D) or <= 1/4 (2D stencils)."""
    limit = 0.5 if grid.ndim == 1 else 0.25
    max_r_a = grid.r * float(np.max(coeffs.A)) if coeffs.A.size else 0.0
    return CflReport(max_r_a <= limit, max_r_a, limit)


def step_explicit(field: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec, stencil2d: str = "5pt") -> np.ndarray:
    """One forward-Euler step u + k * O_L(u); raises on non-finite output."""
    out = np.asarray(field, dtype=float) + grid.k * elliptic_apply(field, coeffs, grid, stencil2d)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("explicit step produced non-finite values")
    return out


def thomas_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub, diag, sup) x = rhs in O(n).

    sub[j] multiplies x_{j-1} in row j (sub[0] unused); sup[j] multiplies
    x_{j+1} (sup[-1] unused). Raises on a vanishing pivot.
    """
    n = diag.size
    c = np.empty(n)
    d = np.empty(n)
    if abs(diag[0]) < 1e-300:
        raise ValueError("singular tridiagonal system (zero pivot)")
    c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for j in range(1, n):
        piv = diag[j] - sub[j] * c[j - 1]
        if abs(piv) < 1e-300:
            raise ValueError("singular tridiagonal system (zero pivot)")
        c[j] = sup[j] / piv
        d[j] = (rhs[j] - sub[j] * d[j - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for j in range(n - 2, -1, -1):
        x[j] = d[j] - c[j] * x[j + 1]
    return x


def _implicit_system(A: np.ndarray, grid: GridSpec):
    """Tridiagonal rows of (I - k * diffusion) with bc folded into the band.

    Returns (sub, diag, sup, corner) where corner = (beta, alpha) holds the
    periodic wrap coefficients (row 0 times x_{n-1}, row n-1 times x_0), or
    None for non-periodic grids.
    """
    n = A.size
    r = grid.r
    Ap = pad_coefficient(A, grid.bc, 1)
    diag = 1.0 + 2.0 * r * A
    sub = np.zeros(n)
    sup = np.zeros(n)
    sub[1:] = -r * A[:-1]
    sup[:-1] = -r * A[1:]
    corner = None
    kind = grid.bc.kind
    if kind == "periodic":
        corner = (-r * Ap[0], -r * Ap[-1])
    elif kind == "extend":
        # ghost u_{-1} = u_0 with ghost A = A_0 (and mirrored at the far end)
        diag[0] -= r * Ap[0]
        diag[-1] -= r * Ap[-1]
    elif kind == "mirror":
        # ghost u_{-1} = u_1 with ghost A = A_1
        sup[0] -= r * Ap[0]
        sub[-1] -= r * Ap[-1]
    # dirichlet: the ghost term is a known constant handled in the rhs
    return sub, diag, sup, corner


def _solve_cyclic(sub, diag, sup, corner, rhs):
    """Sherman-Morrison rank-1 correction around the Thomas solve."""
    beta, alpha = corner
    n = diag.size
    gamma = -diag[0]
    diag2 = diag.copy()
    diag2[0] -= gamma
    diag2[-1] -= alpha * beta / gamma
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = alpha
    y = thomas_solve(sub, diag2, sup, rhs)
    z = thomas_solve(sub, diag2, sup, u)
    vy = y[0] + beta / gamma * y[-1]
    vz = z[0] + beta / gamma * z[-1]
    return y - z * (vy / (1.0 + vz))


def step_implicit(field: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec) -> np.ndarray:
    """One backward-Euler diffusion step (1D); reaction is evaluated explicitly.

    Solving is exact to rounding: substituting the output back into the
    implicit recurrence recovers the right-hand side within 1e-10.
    """
    if grid.ndim != 1:
        raise ValueError("implicit stepping is 1D only")
    u = np.asarray(field, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} does not match grid {grid.shape}")
    coeffs.validate_against(grid)
    if coeffs.B is not None and np.any(coeffs.B != 0.0):
        raise ValueError("implicit scheme is diffusion-only; B must vanish")
    rhs = u.copy()
    if coeffs.C.kind != "none":
        rhs += grid.k * coeffs.C(u)
    sub, diag, sup, corner = _implicit_system(coeffs.A, grid)
    if grid.bc.kind == "dirichlet":
        g = grid.bc.value
        if g != 0.0:
            r = grid.r
            Ap = pad_coefficient(coeffs.A, grid.bc, 1)
            rhs[0] += r * Ap[0] * g
            rhs[-1] += r * Ap[-1] * g
    if corner is not None:
        out = _solve_cyclic(sub, diag, sup, corner, rhs)
    else:
        out = thomas_solve(sub, diag, sup, rhs)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("implicit step produced non-finite values")
    return out


# Source row/column of the low and high ghost cells of a padded axis, per bc.
_GHOST_SOURCE = {"periodic": (-2, 1), "mirror": (2, -3), "extend": (1, -2)}


def _fill_ghosts(P: np.ndarray, bc: BoundaryCondition) -> None:
    """Set the width-1 ghost cells of P's last two axes from its interior.

    Each P[c] then equals grid.pad(P[c, 1:-1, 1:-1], bc, 1) bit for bit:
    rows first, then full columns, so corners pad the padded rows as
    np.pad does.
    """
    if bc.kind == "dirichlet":
        P[..., 0, :] = P[..., -1, :] = bc.value
        P[..., 0] = P[..., -1] = bc.value
        return
    lo, hi = _GHOST_SOURCE[bc.kind]
    P[..., 0, 1:-1] = P[..., lo, 1:-1]
    P[..., -1, 1:-1] = P[..., hi, 1:-1]
    P[..., 0] = P[..., lo]
    P[..., -1] = P[..., hi]


class _TwoComponentStepper:
    """The stacked state W = [U, V] of one solve, stepped in place.

    The padded buffer P and the scratch S are allocated once and reused by
    every step. Each 3-tap pass of the separable Laplacian is a contiguous
    shifted add over the flattened P; its results in ghost cells are
    discarded.
    """

    def __init__(self, U0: np.ndarray, V0: np.ndarray, Du: float, Dv: float,
                 grid: GridSpec):
        if grid.ndim != 2:
            raise ValueError("two-component stepping expects a 2D grid")
        U0 = np.asarray(U0, dtype=float)
        V0 = np.asarray(V0, dtype=float)
        if U0.shape != grid.shape or V0.shape != grid.shape:
            raise ValueError("U and V must both be shaped to the grid")
        self.W = np.stack([U0, V0])
        scale0 = float(np.max(np.abs(self.W)))
        if not np.isfinite(scale0):
            raise ValueError("U and V must be finite")
        self.bound = DIVERGENCE_FACTOR * (1.0 + scale0)
        self.grid = grid
        # k * D / h**2 per channel
        self.scale = (grid.k / grid.h**2) * np.array([Du, Dv], dtype=float).reshape(2, 1, 1)
        m = grid.n_points + 2
        self.P = np.empty((2, m, m))
        # zeroed: S[0] and S[-1] are read (into discarded cells) before any write
        self.S = np.zeros(2 * m * m)

    def step(self, rxn: TwoComponentReaction, step: int) -> None:
        """Advance W by one explicit Euler step; ``step`` labels a divergence."""
        W, P, S = self.W, self.P, self.S
        m = P.shape[-1]
        P[:, 1:-1, 1:-1] = W
        _fill_ghosts(P, self.grid.bc)
        # the returned arrays may be W's own rows: read them, never write them
        f = rxn.f(W[0], W[1])
        g = rxn.g(W[0], W[1])
        p = P.reshape(-1)
        # x pass into S: q[t] = p[t-1]/2 + p[t] + p[t+1]/2
        q = S[1:-1]
        np.add(p[:-2], p[2:], out=q)
        q *= 0.5
        q += p[1:-1]
        # y pass back into P, one padded row (m cells) apart: q[t-m]/2 + q[t] + q[t+m]/2
        r = p[m:-m]
        np.add(S[:-2 * m], S[2 * m:], out=r)
        r *= 0.5
        r += S[m:-m]
        # T = k D/h**2 * (P interior - 4 W) + k [f, g], in the now free S and P
        T = S[:W.size].reshape(W.shape)
        np.multiply(W, -4.0, out=T)
        T += P[:, 1:-1, 1:-1]
        T *= self.scale
        reaction = p[:W.size].reshape(W.shape)
        k = self.grid.k
        np.multiply(f, k, out=reaction[0])
        np.multiply(g, k, out=reaction[1])
        T += reaction
        W += T
        # one reduction catches NaN, inf and runaway growth: NaN fails every <=
        biggest = float(np.abs(W, out=T).max())
        if not biggest <= self.bound:
            what = (f"magnitude {biggest:.3e} exceeded {self.bound:.3e}"
                    if np.isfinite(biggest) else "non-finite values")
            raise DivergenceError(f"two-component step {step} produced {what}", step=step)


def step_two_component(U: np.ndarray, V: np.ndarray, Du: float, Dv: float,
                       rxn: TwoComponentReaction, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler step of the two-component system on a 2D grid.

    One step of the kernel solve_two_component runs, so chaining n calls
    equals an n-step solve bit for bit.
    """
    stepper = _TwoComponentStepper(U, V, Du, Dv, grid)
    stepper.step(rxn, 1)
    return stepper.W[0], stepper.W[1]


def solve_forward(initial: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec, n_steps: int, scheme: str = "explicit",
                  stencil2d: str = "5pt",
                  divergence_factor: float = DIVERGENCE_FACTOR) -> Trajectory:
    """March ``n_steps`` steps; the trajectory holds n_steps+1 slices.

    Divergence (non-finite values, or magnitudes beyond divergence_factor
    times the initial scale) raises DivergenceError carrying the step index.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    u = np.asarray(initial, dtype=float).copy()
    if u.shape != grid.shape:
        raise ValueError(f"initial shape {u.shape} does not match grid {grid.shape}")
    bound = divergence_factor * (1.0 + float(np.max(np.abs(u))))
    slices = [u.copy()]
    for step in range(1, n_steps + 1):
        try:
            if scheme == "explicit":
                u = step_explicit(u, coeffs, grid, stencil2d)
            else:
                u = step_implicit(u, coeffs, grid)
        except DivergenceError as err:
            raise DivergenceError(str(err), step=step) from None
        if np.max(np.abs(u)) > bound:
            raise DivergenceError(
                f"field magnitude exceeded {bound:.3e}", step=step)
        slices.append(u.copy())
    return Trajectory(grid, slices)


def solve_two_component(U0: np.ndarray, V0: np.ndarray, Du: float, Dv: float,
                        rxn: TwoComponentReaction, grid: GridSpec, n_steps: int,
                        record_every: int = 0):
    """Run the two-component system; optionally record V frames.

    Returns (U, V, frames) where frames is a list of V copies sampled every
    ``record_every`` steps (empty when record_every == 0). U0 and V0 are not
    written. Non-finite values, or magnitudes beyond DIVERGENCE_FACTOR times
    the initial scale, raise DivergenceError carrying the step index.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    stepper = _TwoComponentStepper(U0, V0, Du, Dv, grid)
    frames: list[np.ndarray] = []
    for step in range(1, n_steps + 1):
        stepper.step(rxn, step)
        if record_every and step % record_every == 0:
            frames.append(stepper.W[1].copy())
    return stepper.W[0], stepper.W[1], frames


def discrete_residual(traj: Trajectory, coeffs: EllipticCoefficients,
                      grid: GridSpec, stencil2d: str = "5pt") -> np.ndarray:
    """Per-step residual (u^{n+1} - u^n)/k - O_L u^n over a trajectory.

    Zero (to rounding) for trajectories produced by the explicit scheme; the
    penalty form of the constrained objective consumes this flattened.
    """
    res = []
    for prev, nxt in zip(traj.slices[:-1], traj.slices[1:]):
        res.append((nxt - prev) / grid.k - elliptic_apply(prev, coeffs, grid, stencil2d))
    return np.asarray(res)
