"""Time stepping for the quasi-linear PDE and two-component systems.

Explicit (forward Euler) step, with r = k/h**2:

    u_j' = (1 - 2 r A_j) u_j + r A_{j-1} u_{j-1} + r A_{j+1} u_{j+1}
           + k * (B-term + C-term)

In 1D these are stencil._step_taps, stored and judged for stability. The
step that runs, stencil._Step1D, folds k l, C's linear part (and k q(u) for a
uniform fisher medium), into the centre tap, within 4 eps ((max sum|taps| +
k|l|) max|P| + k max|C(u)|) + 5 eta (smallest subnormal) of taps(P) + k C(u).
A 2D step is stencil._Step2D, the step gen_conv2d's blocks run: it pads A
once and runs stencil._laplacian_2d on A*u in one ghost buffer. Its diffusion
is elliptic_apply's, so the step is u + k * elliptic_apply(u) bit for bit.

Implicit (backward Euler) step solves the tridiagonal system

    u_j = (1 + 2 r A_j) u'_j - r A_{j-1} u'_{j-1} - r A_{j+1} u'_{j+1}

whose bands are read off the same taps, diag = 1 - centre and off-diagonals
-side. The matrix is fixed for a whole solve, so it is factored once by
odd-even cyclic reduction (Hockney 1965): each level keeps the odd rows,
storing the inverted pivots of the even rows it eliminates and the
multipliers that fold them into their odd neighbours, down to a system of
at most _TAIL rows that is stored as its dense inverse. Every step runs the
stored levels down, one product with the tail inverse and the levels back
up. A periodic grid adds a Sherman-Morrison rank-1 correction whose vector
and denominator are part of the factor. There is no pivoting, as in the
Thomas algorithm; I - k O_L is column diagonally dominant for A >= 0. Any
pivot below 1e-300 in magnitude, the tail's included, or a periodic
denominator that is rounding noise on zero raises ValueError while factoring.
The reaction C is always evaluated on the pre-update slice (IMEX splitting
for the implicit scheme): diffusion and convection first, nonlinearity on the
old slice within the same step.

Two-component systems step both channels explicitly with the 9-point
transverse Laplacian:

    U' = U + k (Du lap U + f(U, V)),  V' = V + k (Dv lap V + g(U, V)).

U and V are stacked into one padded (2, n+2, n+2) state that a solve
advances in place; a step refills its ghost cells after the update, so none
copies the state in. Every operation runs on whole contiguous padded planes,
into scratch allocated once per solve, and what lands in ghost cells is
discarded. Each pass stores from a 64-byte boundary (_aligned): a misaligned
vector store splits across two cache lines, up to twice the cost, and
placement moves no bit. Both channels ride along one separable 9-point
_laplacian_2d, whose rounding differs from the 9-tap sum by a few ulps. The
pointwise kinetics fill one stacked buffer through the reaction's fused
evaluator (gray_scott's computes U V^2 once), or by copying f and g when it
has none, with the same bits; one multiply then scales both channels by k.

Every solve validates once, builds its step once (_stepper or
_two_component_stepper) and runs it through _march, the one time loop, a
generator that computes a step only when the next slice is asked for. A
1D explicit step writes one of two aligned padded buffers from the other and
hands it back. forward_slices streams a copy of every slice (`npde solve` to
disk); solve_forward copies only the final one, the last slice of that stream.
Divergence (non-finite values, or magnitudes beyond DIVERGENCE_FACTOR times
the initial scale) is reported there with the failing step index, never
clamped. A single step is a one-step solve.

Explicit stability (cfl_check) is one rule in every dimension, a monotone
step: every unfolded tap >= 0 (_step_taps in 1D; 1 - 4 r A and r A in 2D,
conservative under 9pt, monotone up to 1/3). CflReport gives the verdict, the
smallest tap and its node. The implicit scheme is unconditionally stable.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, _fill_ghosts, _ghost_fill, _ghost_scatter
from .grid import pad  # noqa: F401 (npde.solver.pad stays bound; no step calls it)
from .reactions import TwoComponentReaction
from .stencil import (EllipticCoefficients, _aligned, _known_stencil, _laplacian_2d, _Step1D,
                      _Step2D, _step_taps)

# A step is declared divergent when max|u| exceeds this factor times the
# initial scale, long before float64 overflow turns values non-finite.
DIVERGENCE_FACTOR = 1e12
# cyclic reduction hands a reduced system of at most this many rows to one dense inverse
_TAIL = 64


class DivergenceError(ArithmeticError):
    """Raised when a step produces non-finite or runaway values."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def _march(u: np.ndarray, advance, n_steps: int, label: str):
    """The one time loop of every solve: yields u after each of ``n_steps``
    steps u <- advance(u), computing a step only when it is asked for. A
    stepper may hand back its own buffer, so a caller that keeps u copies it.

    A step whose u is non-finite or beyond DIVERGENCE_FACTOR * (1 + max|u0|)
    raises DivergenceError carrying the step index. The bound is finite even
    for an infinite u0, so an infinite u never passes. A computed sum of
    squares is within a relative u.size * eps of max|u|**2's upper bound, the
    exact sum (Higham, Accuracy and Stability, sec. 3.1), so one dot product
    at most bound**2 less that margin passes a step; else (NaN, inf, overflow,
    or bound**2 itself overflowing) max|u| decides, with the same verdict.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    bound = float(min(DIVERGENCE_FACTOR * (1.0 + float(max(u.max(), -u.min()))),
                      np.finfo(float).max))
    square = bound * bound * (1.0 - 4.0 * (u.size + 1) * np.finfo(float).eps)
    for step in range(1, n_steps + 1):
        u = advance(u)
        # vdot, unlike @, warns of no overflow
        if not (square < np.inf and np.vdot(u, u) <= square):
            # max|u| catches NaN, inf and runaway growth: a NaN makes both
            # reductions NaN, and NaN fails every <=
            biggest = float(max(u.max(), -u.min()))
            if not biggest <= bound:
                what = (f"magnitude {biggest:.3e} exceeded {bound:.3e}"
                        if np.isfinite(biggest) else "non-finite values")
                raise DivergenceError(f"{label} step {step} produced {what}", step=step)
        yield u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A forward solve's outcome: its final slice (solve_forward).
    forward_slices streams every slice, the initial state first."""

    last: np.ndarray

    def final(self) -> np.ndarray:
        return self.last


@dataclass(frozen=True)
class CflReport:
    stable: bool
    min_tap: float
    node: int


def cfl_check(coeffs: EllipticCoefficients, grid: GridSpec) -> CflReport:
    """Explicit stability, a monotone step: every unfolded tap >= 0. The taps are
    _step_taps in 1D (r A <= 1/2, |B| h <= 2 A), in 2D the 5-point 1 - 4 r A and
    r A (conservative under 9pt). Returns CflReport(stable, min_tap, node): the
    verdict, the smallest tap as float64 computes it, and its first node, row-major."""
    coeffs.validate_against(grid)
    taps = (_step_taps(coeffs.A, coeffs.B, grid) if grid.ndim == 1 else
            np.stack([1.0 - 4.0 * (r_a := grid.r * coeffs.A.ravel()), r_a]))
    node = int(np.argmin(taps.min(axis=0)))
    min_tap = float(taps[:, node].min())
    return CflReport(min_tap >= 0.0, min_tap, node)


class _TridiagonalFactor:
    """Odd-even cyclic reduction of one tridiagonal matrix, factored once.

    Each level keeps the odd rows: it inverts the even rows' pivots and stores
    the multipliers that eliminate them from their odd neighbours, so the
    reduced system is again tridiagonal and half the size. Levels are stored
    down to the first system of at most _TAIL rows, kept as its dense inverse
    (and still reduced, so every pivot is checked). solve(rhs) runs the
    stored levels down, tinv @ d and back up: O(n) work, the tail being
    fixed. ``corner`` = (beta, alpha) adds the periodic wrap entries (row 0
    times x_{n-1}, row n-1 times x_0) as a Sherman-Morrison rank-1 correction
    whose vector z and denominator are computed here, once; a denominator
    that is rounding noise on an exact zero raises ValueError.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 corner: tuple | None = None):
        a = np.array(sub, dtype=float)
        b = np.array(diag, dtype=float)
        c = np.array(sup, dtype=float)
        if b.ndim != 1 or not b.size or a.shape != b.shape or c.shape != b.shape:
            raise ValueError(f"sub, diag and sup must be 1D, non-empty and of one length, "
                             f"got shapes {a.shape}, {b.shape} and {c.shape}")
        a[:1] = 0.0
        c[-1:] = 0.0
        self.n = n = b.size
        if corner is not None:
            beta, alpha = corner
            gamma = -b[0]
            b[0] -= gamma
            b[-1] -= alpha * beta / gamma
        self.levels, tail = [], None
        while b.size:
            if tail is None and b.size <= _TAIL:
                tail = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
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
            if tail is None:
                self.levels.append((inv, ae * inv, ce * inv, left, right))
            a, b, c = left * ae[:o], b_next, c_next
        self.tinv = np.linalg.inv(tail)
        self.wrap = None
        if corner is not None:
            rank1 = np.zeros(n)
            rank1[0], rank1[-1] = gamma, alpha
            z = self._reduce(rank1)
            ratio = beta / gamma
            z0, z1 = z[0], ratio * z[-1]
            denom = 1.0 + z0 + z1
            if abs(denom) <= 16 * np.finfo(float).eps * (1.0 + abs(z0) + abs(z1)):
                raise ValueError("singular tridiagonal system (periodic wrap)")
            self.wrap = (z, ratio, denom)

    def _reduce(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the factored (non-periodic) system for one right-hand side."""
        evens = []
        d = rhs
        for _, _, _, left, right in self.levels:
            de = d[0::2]
            evens.append(de)
            d = d[1::2] + left * de[:left.size]
            d[:right.size] += right * de[1:]
        x = self.tinv @ d
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
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs has shape {rhs.shape}; the system has {self.n} rows")
        y = self._reduce(rhs)
        if self.wrap is not None:
            z, ratio, denom = self.wrap
            y -= z * ((y[0] + ratio * y[-1]) / denom)
        return y


def thomas_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub, diag, sup) x = rhs.

    sub[j] multiplies x_{j-1} in row j (sub[0] unused); sup[j] multiplies
    x_{j+1} (sup[-1] unused); bands and rhs of unequal lengths raise
    ValueError. The solve is the factor-once odd-even cyclic reduction the
    implicit scheme uses (_TridiagonalFactor): O(n) work in vectorised levels
    over one dense inverse of at most _TAIL rows, no pivoting, so it suits
    diagonally dominant systems as the Thomas algorithm does. Raises
    ValueError on a vanishing pivot (magnitude below 1e-300). The pivots
    checked are the diagonal entries, as reduced so far, of the rows each
    level eliminates; every row, the tail's included, is eliminated at
    exactly one level, so every row's pivot is checked.
    """
    return _TridiagonalFactor(sub, diag, sup).solve(rhs)


def _implicit_system(taps: np.ndarray, grid: GridSpec):
    """Tridiagonal rows of (I - taps) with bc folded into the band; taps of k O_L.

    Rows 0 and n-1 are laid out over the padded columns, so sub[0] and
    sup[-1] sit on the ghosts, and _ghost_scatter folds them onto the nodes
    they copy. Returns (sub, diag, sup, corner) where corner = (beta, alpha)
    holds the periodic wrap coefficients (row 0 times x_{n-1}, row n-1 times
    x_0), or None for non-periodic grids.
    """
    sub, diag, sup = -taps[0], 1.0 - taps[1], -taps[2]
    ends = np.zeros((2, diag.size + 2))
    ends[0, :3] = sub[0], diag[0], sup[0]
    ends[1, -3:] = sub[-1], diag[-1], sup[-1]
    ends = _ghost_scatter(ends, grid.bc)
    diag[0], sup[0] = ends[0, :2]
    sub[-1], diag[-1] = ends[1, -2:]
    corner = (ends[0, -1], ends[1, 0]) if grid.bc.kind == "periodic" else None
    return sub, diag, sup, corner


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


def _stepper(initial: np.ndarray, coeffs: EllipticCoefficients, grid: GridSpec,
             scheme: str, stencil2d: str = "5pt"):
    """Validate a solve once; return its initial state (a copy the solve owns)
    and the step u -> u' each of its steps applies, which reads no array the
    caller can write later (A is copied, a source field is read-only): a
    stream read after the caller writes them still marches the solve it was
    built for. A 1D explicit step runs _Step1D from u's padded buffer into the
    other's interior (each on a cache line), fills its ghosts and hands it back.
    """
    u = np.array(initial, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"initial shape {u.shape} does not match grid {grid.shape}")
    _known_stencil(stencil2d)    # a misspelt name is refused on every grid
    if scheme == "implicit":
        return u, _implicit_stepper(coeffs, grid)
    if scheme != "explicit":
        raise ValueError(f"unknown scheme {scheme!r}")
    coeffs.validate_against(grid)
    if grid.ndim == 2:
        return u, _Step2D(coeffs.A, grid, stencil2d, coeffs.C)
    step, bc = _Step1D(_step_taps(coeffs.A, coeffs.B, grid), grid, coeffs.C), grid.bc
    padded = [_aligned(grid.n_points + 2, lead=1) for _ in range(2)]
    padded[0][1:-1] = u
    inner = [_ghost_fill(P, bc)[1:-1] for P in padded]

    def advance(u: np.ndarray) -> np.ndarray:
        dst = int(u is inner[0])    # the buffer u is not in
        step._into(padded[1 - dst], inner[dst])
        _ghost_fill(padded[dst], bc)
        return inner[dst]

    return inner[0], advance


def step_explicit(field: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec, stencil2d: str = "5pt") -> np.ndarray:
    """One forward-Euler step u + k * O_L(u): a one-step solve_forward.

    It runs the step gen_conv1d's or gen_conv2d's blocks run (stencil._Step1D
    or _Step2D); a 2D step is u + k * elliptic_apply(u) bit for bit.
    Divergence raises DivergenceError with step 1, as in solve_forward.
    """
    return solve_forward(field, coeffs, grid, 1, "explicit", stencil2d).final()


def step_implicit(field: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec) -> np.ndarray:
    """One backward-Euler diffusion step (1D): a one-step implicit solve_forward.

    The reaction is evaluated explicitly. Each call validates and factors the
    matrix again, reduction and tail inverse included, five to ten times the
    cost of one step of an n-step solve, which factors once and is the path
    for chained steps. Both run the same factor and apply, so n chained calls
    equal an n-step implicit solve bit for bit; substituting the output back
    into the implicit recurrence recovers the right-hand side within 1e-10.
    """
    return solve_forward(field, coeffs, grid, 1, "implicit").final()


def _two_component_stepper(U0: np.ndarray, V0: np.ndarray, Du: float, Dv: float,
                           rxn: TwoComponentReaction, grid: GridSpec):
    """Validate a two-component solve once; return its state, the padded
    buffer P = [U, V] of shape (2, n+2, n+2) with its ghost cells filled, and
    the step that advances P in place by one explicit Euler step.

    The scratch buffers are allocated once per solve, and every operation of
    a step runs on whole contiguous padded planes. The 9-point _laplacian_2d
    reads P with both channels riding along, its x pass storing into S and
    its y pass into Y, and writes T = -4 P + Y over S[1:]. The kinetics fill
    R = Y[m:] from the planes P[0] and P[1]. What lands in ghost cells is
    discarded: P's are refilled after the update.
    """
    if grid.ndim != 2:
        raise ValueError("two-component stepping expects a 2D grid")
    U0, V0 = np.asarray(U0, dtype=float), np.asarray(V0, dtype=float)
    if U0.shape != grid.shape or V0.shape != grid.shape:
        raise ValueError("U and V must both be shaped to the grid")
    if not (np.all(np.isfinite(U0)) and np.all(np.isfinite(V0))):
        raise ValueError("U and V must be finite")
    if not (np.isfinite(Du) and np.isfinite(Dv)):
        raise ValueError(f"Du and Dv must be finite, got {Du} and {Dv}")
    # k * D / h**2 per channel
    scale = (grid.k / grid.h**2) * np.array([Du, Dv], dtype=float).reshape(2, 1, 1)
    m = grid.n_points + 2
    P = _aligned(2 * m * m).reshape(2, m, m)
    P[:, 1:-1, 1:-1] = U0, V0
    S, Y = _aligned(2 * m * m + 1, 1), _aligned(2 * m * m + m, m)
    lap, plane = _laplacian_2d(P, S[:-1], "9pt", Y[:-m]), _aligned(m * m).reshape(m, m)
    T, R = S[1:].reshape(P.shape), Y[m:].reshape(P.shape)
    bc, k = grid.bc, grid.k

    def step(P: np.ndarray) -> np.ndarray:
        # T = k D/h**2 * lap P + k [f, g]; out= keeps T and R the closure's buffers
        lap(T)
        np.multiply(T, scale, out=T)
        rxn._fill(P[0], P[1], R, plane)
        np.multiply(R, k, out=R)
        np.add(T, R, out=T)
        P += T
        return _fill_ghosts(P, bc)

    return _fill_ghosts(P, bc), step


def step_two_component(U: np.ndarray, V: np.ndarray, Du: float, Dv: float,
                       rxn: TwoComponentReaction, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler step of the two-component system on a 2D grid: a
    one-step solve_two_component, so chaining n calls equals an n-step solve
    bit for bit.
    """
    return solve_two_component(U, V, Du, Dv, rxn, grid, 1)[:2]


def forward_slices(initial: np.ndarray, coeffs: EllipticCoefficients,
                   grid: GridSpec, n_steps: int, scheme: str = "explicit",
                   stencil2d: str = "5pt"):
    """Stream a forward solve: its n_steps+1 slices, initial state first, each
    a fresh copy computed when it is asked for (_march). The input is
    validated, the step built and an implicit matrix factored before this
    returns (_stepper); n_steps < 1 and divergence raise while iterating.
    """
    u, step = _stepper(initial, coeffs, grid, scheme, stencil2d)
    return map(np.copy, itertools.chain((u,), _march(u, step, n_steps, scheme)))


def solve_forward(initial: np.ndarray, coeffs: EllipticCoefficients,
                  grid: GridSpec, n_steps: int, scheme: str = "explicit",
                  stencil2d: str = "5pt") -> Trajectory:
    """March ``n_steps`` steps now and keep only the final slice, the last of
    forward_slices, in O(n) memory. n_steps < 1 and divergence
    (DivergenceError carrying the step) raise here."""
    u, step = _stepper(initial, coeffs, grid, scheme, stencil2d)
    return Trajectory(collections.deque(_march(u, step, n_steps, scheme), maxlen=1).pop().copy())


def solve_two_component(U0: np.ndarray, V0: np.ndarray, Du: float, Dv: float,
                        rxn: TwoComponentReaction, grid: GridSpec, n_steps: int,
                        record_every: int = 0):
    """Run the two-component system; optionally record V frames.

    Returns (U, V, frames) where frames is a list of V copies sampled every
    ``record_every`` steps (empty when record_every == 0; a negative one
    raises ValueError). U0 and V0 are not written. Divergence raises
    DivergenceError carrying the step index (_march). It checks the padded
    state, whose ghost cells copy boundary cells or hold the dirichlet value,
    so the bound's scale is 1 + max(max|U0|, max|V0|, |value|).
    """
    if record_every < 0:
        raise ValueError("record_every must be >= 0")
    P, advance = _two_component_stepper(U0, V0, Du, Dv, rxn, grid)
    frames: list[np.ndarray] = []
    for step, P in enumerate(_march(P, advance, n_steps, "two-component"), start=1):
        if record_every and step % record_every == 0:
            frames.append(P[1, 1:-1, 1:-1].copy())
    return P[0, 1:-1, 1:-1].copy(), P[1, 1:-1, 1:-1].copy(), frames
