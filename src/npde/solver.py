"""Time stepping for the quasi-linear PDE and two-component systems.

Explicit (forward Euler) step, with r = k/h**2:

    u_j' = (1 - 2 r A_j) u_j + r A_{j-1} u_{j-1} + r A_{j+1} u_{j+1}
           + k * (B-term + C-term)

In 1D these per-node taps are stencil._step_taps, gen_conv1d's kernels, so
solver, block and DiffusionLayer steps agree bit for bit; they round a few
ulps per step apart from u + k * elliptic_apply(u), the divergence form.

Implicit (backward Euler) step solves the tridiagonal system

    u_j = (1 + 2 r A_j) u'_j - r A_{j-1} u'_{j-1} - r A_{j+1} u'_{j+1}

whose bands are read off the same taps, diag = 1 - centre and off-diagonals
-side. The matrix is fixed for a whole solve, so it is factored once by
odd-even cyclic reduction (Hockney 1965): each level keeps the odd rows,
storing the inverted pivots of the even rows it eliminates and the
multipliers that fold them into their odd neighbours. Every step then
applies the factor in log2(n) vectorised passes down and log2(n) back up.
A periodic grid adds a Sherman-Morrison rank-1 correction whose vector and
denominator are part of the factor. There is no pivoting, as in the Thomas
algorithm; I - k O_L is column diagonally dominant for A >= 0. A pivot
below 1e-300 in magnitude raises ValueError while factoring.
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

Explicit stability (cfl_check) requires a monotone 1D step, every tap >= 0
(r A <= 1/2 and |B| h <= 2 A), and r * max(A) <= 1/4 with A >= 0 in 2D;
the implicit scheme is unconditionally stable. Divergence (non-finite
values, or magnitudes beyond DIVERGENCE_FACTOR times the initial scale) is
reported with the failing step index, never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# pad stays part of this module's namespace (npde.solver.pad); no step here calls it
from .grid import _GHOST_SOURCE, BoundaryCondition, GridSpec, _ghost_fill, pad  # noqa: F401
from .reactions import TwoComponentReaction
from .stencil import EllipticCoefficients, _step_taps, _tap_step, elliptic_apply

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
    """Explicit stability: in 1D a monotone step (every step tap >= 0, i.e.
    r A <= 1/2 and |B| h <= 2 A per node), in 2D r * max(A) <= 1/4 and A >= 0.
    """
    coeffs.validate_against(grid)
    limit = 0.5 if grid.ndim == 1 else 0.25
    max_r_a = grid.r * float(np.max(coeffs.A))
    if grid.ndim == 1:
        stable = bool(np.all(_step_taps(coeffs.A, coeffs.B, grid) >= 0.0))
    else:
        stable = max_r_a <= limit and float(np.min(coeffs.A)) >= 0.0
    return CflReport(stable, max_r_a, limit)


def step_explicit(field: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec, stencil2d: str = "5pt") -> np.ndarray:
    """One forward-Euler step u + k * O_L(u); raises on non-finite output.

    1D applies the step taps (gen_conv1d's kernels), 2D the divergence form.
    """
    u = np.asarray(field, dtype=float)
    # a misshaped 1D field falls through to elliptic_apply's shape check
    if grid.ndim == 1 and u.shape == grid.shape:
        coeffs.validate_against(grid)
        out = _tap_step(_step_taps(coeffs.A, coeffs.B, grid), u, grid, coeffs.C)
    else:
        out = u + grid.k * elliptic_apply(u, coeffs, grid, stencil2d)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("explicit step produced non-finite values")
    return out


class _TridiagonalFactor:
    """Odd-even cyclic reduction of one tridiagonal matrix, factored once.

    Each level keeps the odd rows: it inverts the even rows' pivots and stores
    the multipliers that eliminate them from their odd neighbours, so the
    reduced system is again tridiagonal and half the size. solve(rhs) then
    runs log2(n) vectorised passes down and log2(n) back up. ``corner`` =
    (beta, alpha) adds the periodic wrap entries (row 0 times x_{n-1}, row
    n-1 times x_0) as a Sherman-Morrison rank-1 correction whose vector z
    and denominator are computed here, once.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 corner: tuple | None = None):
        a = np.array(sub, dtype=float)
        b = np.array(diag, dtype=float)
        c = np.array(sup, dtype=float)
        a[:1] = 0.0
        c[-1:] = 0.0
        n = b.size
        if corner is not None:
            beta, alpha = corner
            gamma = -b[0]
            b[0] -= gamma
            b[-1] -= alpha * beta / gamma
        self.levels = []
        while b.size:
            # the even rows' pivots are inverted: these are the pivots checked
            piv = b[0::2]
            if np.any(np.abs(piv) < 1e-300):
                raise ValueError("singular tridiagonal system (zero pivot)")
            inv = 1.0 / piv
            ae, ce = a[0::2], c[0::2]
            o = b.size // 2
            # odd row 2j+1 sits between even rows j and j+1 (q of them have both)
            q = inv.size - 1
            left = -a[1::2] * inv[:o]
            right = -c[1::2][:q] * inv[1:]
            b_next = b[1::2] + left * ce[:o]
            b_next[:q] += right * ae[1:]
            c_next = np.zeros(o)
            c_next[:q] = right * ce[1:]
            self.levels.append((inv, ae * inv, ce * inv, left, right))
            a, b, c = left * ae[:o], b_next, c_next
        self.wrap = None
        if corner is not None:
            rank1 = np.zeros(n)
            rank1[0], rank1[-1] = gamma, alpha
            z = self._reduce(rank1)
            ratio = beta / gamma
            self.wrap = (z, ratio, 1.0 + z[0] + ratio * z[-1])

    def _reduce(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the factored (non-periodic) system for one right-hand side."""
        evens = []
        d = rhs
        for _, _, _, left, right in self.levels:
            de = d[0::2]
            evens.append(de)
            d = d[1::2] + left * de[:left.size]
            d[:right.size] += right * de[1:]
        x = d
        for (inv, ae, ce, _, _), de in zip(reversed(self.levels), reversed(evens)):
            xe = de * inv
            xe[1:] -= ae[1:] * x[:inv.size - 1]
            xe[:x.size] -= ce[:x.size] * x
            full = np.empty(xe.size + x.size)
            full[0::2] = xe
            full[1::2] = x
            x = full
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with M x = rhs; a fresh array, rhs is not written."""
        y = self._reduce(np.asarray(rhs, dtype=float))
        if self.wrap is not None:
            z, ratio, denom = self.wrap
            y -= z * ((y[0] + ratio * y[-1]) / denom)
        return y


def thomas_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub, diag, sup) x = rhs.

    sub[j] multiplies x_{j-1} in row j (sub[0] unused); sup[j] multiplies
    x_{j+1} (sup[-1] unused). The solve is the factor-once odd-even cyclic
    reduction the implicit scheme uses (_TridiagonalFactor): O(n) work in
    log2(n) vectorised levels, no pivoting, so it suits diagonally dominant
    systems as the Thomas algorithm does. Raises ValueError on a vanishing
    pivot (magnitude below 1e-300). The pivots checked are the diagonal
    entries, as reduced so far, of the rows each level eliminates; every row
    is eliminated at exactly one level, so every row's pivot is checked.
    """
    return _TridiagonalFactor(sub, diag, sup).solve(rhs)


def _implicit_system(taps: np.ndarray, grid: GridSpec):
    """Tridiagonal rows of (I - taps) with bc folded into the band; taps of k O_L.

    sub[0] and sup[-1] multiply the ghosts and fold onto the nodes they copy.
    Returns (sub, diag, sup, corner) where corner = (beta, alpha) holds the
    periodic wrap coefficients (row 0 times x_{n-1}, row n-1 times x_0), or
    None for non-periodic grids.
    """
    sub, diag, sup = -taps[0], 1.0 - taps[1], -taps[2]
    kind = grid.bc.kind
    if kind == "periodic":
        return sub, diag, sup, (sub[0], sup[-1])
    if kind != "dirichlet":
        # the ghosts copy nodes lo and hi: extend 0 and n-1, mirror 1 and n-2
        n = diag.size
        lo, hi = (s % (n + 2) - 1 for s in _GHOST_SOURCE[kind])
        (diag, sup)[lo][0] += sub[0]
        (sub, diag)[hi - (n - 2)][-1] += sup[-1]
    return sub, diag, sup, None


def _implicit_stepper(coeffs: EllipticCoefficients, grid: GridSpec):
    """Validate an implicit 1D solve and factor I - k O_L once.

    Returns the backward-Euler step u -> u' that every step of the solve
    applies: a right-hand side u + k C(u) plus the dirichlet offsets, then
    one solve with the stored factor.
    """
    if grid.ndim != 1:
        raise ValueError("implicit stepping is 1D only")
    coeffs.validate_against(grid)
    if coeffs.B is not None and np.any(coeffs.B != 0.0):
        raise ValueError("implicit scheme is diffusion-only; B must vanish")
    taps = _step_taps(coeffs.A, None, grid, identity=0.0)
    factor = _TridiagonalFactor(*_implicit_system(taps, grid))
    bc, k, reaction = grid.bc, grid.k, coeffs.C

    def step(u: np.ndarray) -> np.ndarray:
        rhs = u.copy()
        if reaction.kind != "none":
            rhs += k * reaction(u)
        if bc.kind == "dirichlet" and bc.value != 0.0:
            rhs[0] += taps[0, 0] * bc.value
            rhs[-1] += taps[2, -1] * bc.value
        return factor.solve(rhs)

    return step


def step_implicit(field: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec) -> np.ndarray:
    """One backward-Euler diffusion step (1D); reaction is evaluated explicitly.

    Solving is exact to rounding: substituting the output back into the
    implicit recurrence recovers the right-hand side within 1e-10. It runs
    the same factor and apply as an implicit solve_forward, so chaining n
    calls equals an n-step implicit solve bit for bit.
    """
    step = _implicit_stepper(coeffs, grid)
    u = np.asarray(field, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} does not match grid {grid.shape}")
    out = step(u)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("implicit step produced non-finite values")
    return out


def _fill_ghosts(P: np.ndarray, bc: BoundaryCondition) -> None:
    """Set the width-1 ghost cells of P's last two axes from its interior.

    Each P[c] then equals grid.pad(P[c, 1:-1, 1:-1], bc, 1) bit for bit:
    rows first, then full columns (grid._ghost_fill), so corners pad the
    padded rows as np.pad does.
    """
    if bc.kind == "dirichlet":
        P[..., 0, :] = P[..., -1, :] = bc.value
    else:
        lo, hi = _GHOST_SOURCE[bc.kind]
        P[..., 0, 1:-1] = P[..., lo, 1:-1]
        P[..., -1, 1:-1] = P[..., hi, 1:-1]
    _ghost_fill(P, bc)


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
    An explicit 1D solve builds the step taps and the padded buffer once; an
    implicit solve validates its input and factors its matrix once.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    u = np.array(initial, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"initial shape {u.shape} does not match grid {grid.shape}")
    bound = divergence_factor * (1.0 + float(np.max(np.abs(u))))
    explicit_1d = scheme == "explicit" and grid.ndim == 1
    if explicit_1d:
        coeffs.validate_against(grid)
        taps, P = _step_taps(coeffs.A, coeffs.B, grid), np.empty(grid.n_points + 2)
    elif scheme == "implicit":
        implicit = _implicit_stepper(coeffs, grid)
    slices = [u]
    for step in range(1, n_steps + 1):
        try:
            if explicit_1d:
                u = _tap_step(taps, u, grid, coeffs.C, P)
            elif scheme == "explicit":
                u = step_explicit(u, coeffs, grid, stencil2d)
            else:
                u = implicit(u)
        except DivergenceError as err:
            raise DivergenceError(f"{err} at step {step}", step=step) from None
        # one reduction catches NaN, inf and runaway growth: NaN fails every <=
        biggest = float(np.abs(u).max())
        if not biggest <= bound:
            what = (f"magnitude {biggest:.3e} exceeded {bound:.3e}"
                    if np.isfinite(biggest) else "non-finite values")
            raise DivergenceError(f"{scheme} step {step} produced {what}", step=step)
        slices.append(u)
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
