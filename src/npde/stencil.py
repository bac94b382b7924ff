"""Discrete differential operators: Laplacian stencils and their application.

The 1D second derivative is the 3-point stencil [1, -2, 1]/h**2. In 2D the
5-point stencil is

    [[0, 1, 0],
     [1,-4, 1],
     [0, 1, 0]]

and the 9-point variant includes the diagonals:

    [[0.25, 0.5, 0.25],
     [0.5, -3.0, 0.5 ],
     [0.25, 0.5, 0.25]]

(both unscaled; divide by h**2 where a physical Laplacian is needed). No
table is stored: the steps below are the stencils' one definition, and verify
reads their taps off the steps' unit-impulse responses.

With a per-node diffusion field A the operator becomes the variable stencil
(1/h**2)[A_{j-1}, -2 A_j, A_{j+1}], i.e. the second difference of the product
A*u. The full quasi-linear elliptic operator applied here is

    O_L u = diff(A, u) + B * centered_first_difference(u)/(2h) + C(u)

with C a pointwise reaction. The gradient-of-A cross term is absorbed into B,
so B is the effective convection coefficient.

The 1D explicit step has one definition. _step_taps builds the per-node taps
that gen_conv1d's and gen_rnn_cell's blocks store, cfl_check judges and the
RBM matrix (_band_matrix) and implicit bands read. _Step1D builds the step
that solver, blocks and DiffusionLayer run, so they agree bit for bit: k l,
C's linear part, in the centre tap, scalar taps for a uniform medium, and if
those are symmetric and R = q u (fisher), a (left + right) + (b + k q(u)) u.
It is within 4 eps ((max_j sum_d |taps[d, j]| + k |l|) max|P| + k max|C(u)|)
+ 5 eta (eta the smallest subnormal) of the unfolded taps(P) + k C(u), bit
for bit when nothing folds. _apply_taps and _Step1D._into write into the
array they are handed (a fresh one when none): the solver's 1D state lives in
two aligned padded buffers (_aligned) that steps write in turn. _tap_step_vjp
takes an output cotangent to u and the tap rows, _step_taps_vjp the rows to
A. elliptic_apply keeps the divergence form, (1/h**2) stencil(A*u), in 1D the
reference for the unfolded taps. The 2D step has one definition, _Step2D,
which the solver, gen_conv2d's blocks and diffusion_term run over the one
separable 2D Laplacian, _laplacian_2d, on whole padded planes: _Step2D keeps
the interior of its result, the Gray-Scott step all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (BoundaryCondition, GridSpec, _coefficient_bc, _fill_ghosts, _ghost_fill,
                   _ghost_scatter, pad, pad_coefficient)
from .reactions import ReactionSpec, no_reaction

STENCILS_2D = ("5pt", "9pt")


def _known_stencil(name: str) -> None:
    if name not in STENCILS_2D:
        raise ValueError(f"unknown 2D stencil {name!r}; expected one of {STENCILS_2D}")


def _aligned(size: int, lead: int = 0) -> np.ndarray:
    """A zeroed flat float buffer of ``size`` cells, element ``lead`` 64-byte aligned."""
    raw = np.zeros(size + 8)
    skip = -(raw.ctypes.data // 8 + lead) % 8
    return raw[skip:skip + size]


def _apply_taps(taps, P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The package's one 3-tap correlation along P's last axis, into out if given.

    Each taps[d] is a scalar or a contiguous row of per-node weights; leading
    axes of P ride along.
    """
    out = np.multiply(taps[0], P[..., :-2], out=out)
    out += taps[1] * P[..., 1:-1]
    out += taps[2] * P[..., 2:]
    return out


def _step_taps(A: np.ndarray, B: np.ndarray | None, grid: GridSpec,
               identity: float = 1.0) -> np.ndarray:
    """Per-node taps of one explicit 1D step, identity * I + k * O_L's linear
    part, as three contiguous rows (left, centre, right neighbour).

    Node j's taps are (k/h**2)[A_{j-1}, -2 A_j, A_{j+1}] (ghost A from
    pad_coefficient), with a convection B folded into the sides as -+ k B_j/(2h).
    identity = 0 leaves k * O_L, whose implicit bands are 1 - centre and -side.
    """
    Ap = pad_coefficient(A, grid.bc)
    scale = grid.k / grid.h**2
    taps = np.empty((3, A.size))
    taps[0] = scale * Ap[:-2]
    taps[1] = scale * (-2.0 * A) + identity
    taps[2] = scale * Ap[2:]
    if B is not None:
        w = grid.k / (2.0 * grid.h)
        taps[0] -= w * B
        taps[2] += w * B
    return taps


def _step_taps_vjp(g_taps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Adjoint of _step_taps in A: A's gradient from the (3, n) tap-row gradients."""
    n = g_taps.shape[1]
    g_ap = np.zeros(n + 2)
    for d, w in enumerate((1.0, -2.0, 1.0)):
        g_ap[d:d + n] += w * g_taps[d]
    return (grid.k / grid.h**2) * _ghost_scatter(g_ap, _coefficient_bc(grid.bc))


class _Step1D:
    """The 1D explicit step that runs, built once from _step_taps' (3, n) taps:
    k l (ReactionSpec.split) added to the centre row, constant rows as three
    0-d arrays, whose products are the rows' bit for bit. A call pads u's last
    axis (into P when given, else into a buffer kept per leading shape) and
    returns a fresh array (_into: into out), applying the taps and adding k R(u),
    or, for symmetric scalar taps and R = q u (fisher), running a (left + right)
    + (b + k q(u)) u, the centre factor in an aligned scratch.
    """

    def __init__(self, taps: np.ndarray, grid: GridSpec,
                 reaction: ReactionSpec = no_reaction()):
        linear, self.rest, self.rest_deriv, self.q = reaction.split(grid.k)
        if linear != 0.0:
            taps = np.stack([taps[0], taps[1] + linear, taps[2]])
        if np.all(taps == taps[:, :1]):
            taps = tuple(np.array(row[0]) for row in taps)
        self.taps, self.grid, self.shape = taps, grid, None
        self.pair = isinstance(taps, tuple) and taps[0] == taps[2] and self.q is not None
        self._buffers((grid.n_points,))

    def _buffers(self, shape: tuple) -> None:
        """Rebuild the padded buffer and the centre scratch when u's shape changes."""
        if self.shape != shape:
            self.shape, self.P = shape, np.empty(shape[:-1] + (shape[-1] + 2,))
            self.centre = _aligned(int(np.prod(shape))).reshape(shape) if self.pair else None

    def __call__(self, u: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
        self._buffers(u.shape)
        P = self.P if P is None else P
        P[..., 1:-1] = u
        return self._into(_ghost_fill(P, self.grid.bc))

    def _into(self, P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The step from the ghost-filled P into out (a fresh array when None)."""
        if self.pair:
            u = P[..., 1:-1]
            out = np.add(P[..., :-2], P[..., 2:], out=out)
            out *= self.taps[0]
            centre = self.q(u, out=self.centre)
            centre += self.taps[1]
            centre *= u
            out += centre
            return out
        out = _apply_taps(self.taps, P, out)
        if self.rest is not None:
            out += self.rest(P[..., 1:-1])
        return out


def _tap_step_vjp(step: _Step1D, P: np.ndarray, g: np.ndarray):
    """Adjoint of the step that filled P at its output's cotangent g: u's (the
    transposed taps that ran, plus k dR/du) and the (3, n) tap rows', summed
    over leading axes, which the stored and the folded rows share."""
    n = g.shape[-1]
    rows_g, rows_P = g.reshape(-1, n), P.reshape(-1, n + 2)
    G, g_taps = np.zeros(P.shape), np.empty((3, n))
    for d in range(3):
        G[..., d:d + n] += step.taps[d] * g
        g_taps[d] = np.einsum("ij,ij->j", rows_g, rows_P[:, d:d + n])
    g_u = _ghost_scatter(G, step.grid.bc)
    if step.rest_deriv is not None:
        g_u += step.rest_deriv(P[..., 1:-1]) * g
    return g_u, g_taps


def _band_matrix(taps: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Dense (n, n) matrix of the taps' apply under bc, built in O(n): the
    taps on the diagonals of an (n, n+2) matrix, ghost columns folded back.
    """
    n = taps.shape[1]
    M = np.zeros((n, n + 2))
    rows = np.arange(n)
    for d in range(3):
        M[rows, rows + d] = taps[d]
    return _ghost_scatter(M, bc)


def _laplacian_2d(P: np.ndarray, S: np.ndarray, stencil2d: str, Y: np.ndarray):
    """The package's one 2D Laplacian (unscaled), over whole padded C-contiguous planes P.

    The caller fills P's ghost cells before each call; leading axes ride
    along. S and Y are zeroed flat scratch of P.size cells (5pt reads no Y).
    The passes are contiguous shifted adds over the flattened buffers, sliced
    here once; what lands in ghost cells is discarded. 9pt, outer([1/2, 1,
    1/2], [1/2, 1, 1/2]) - 4 delta, is a pass along x into S and one along y
    into Y; 5pt sums the four edge neighbours into S. The first cell a pass
    stores to is S[1] for the x pass, and Y[m] (9pt) or S[m] (5pt) for the y
    pass, with m P's row length: a caller aligns these. Returns lap(out=None),
    which runs the passes and only then writes out = -4 P + neighbours, a
    plane of P's shape, so under 9pt out may alias S.
    """
    _known_stencil(stencil2d)
    m, p = P.shape[-1], P.reshape(-1)
    if stencil2d == "9pt":
        # out[t] = left[t]/2 + centre[t] + right[t]/2; the y pass reads S one
        # padded row (m cells) apart
        passes = ((p[:-2], p[2:], p[1:-1], S[1:-1]),
                  (S[:-2 * m], S[2 * m:], S[m:-m], Y[m:-m]))

        def run_passes():
            for left, right, centre, out in passes:
                np.add(left, right, out=out)
                out *= 0.5
                out += centre
    else:
        x, y = S[1:-1], S[m:-m]
        left, right, below, above = p[:-2], p[2:], p[:-2 * m], p[2 * m:]

        def run_passes():
            np.add(left, right, out=x)
            np.add(y, below, out=y)
            np.add(y, above, out=y)
    neighbours = (Y if stencil2d == "9pt" else S).reshape(P.shape)

    def lap(out: np.ndarray | None = None) -> np.ndarray:
        run_passes()
        out = np.multiply(P, -4.0, out=out)
        out += neighbours
        return out

    return lap


class _Step2D:
    """The 2D explicit step that runs, _Step1D's counterpart: A padded once. A
    call fills one ghost buffer (rebuilt when u's leading axes change), scales
    it by the padded A in place and takes the interior of _laplacian_2d on it;
    diffusion divides that by h**2, and the step adds C(u) and returns u + k out.
    """

    def __init__(self, A: np.ndarray, grid: GridSpec, stencil2d: str,
                 reaction: ReactionSpec = no_reaction()):
        self.Ap = pad_coefficient(A, grid.bc)
        self.grid, self.stencil2d, self.reaction = grid, stencil2d, reaction
        self._buffer(np.empty(self.Ap.shape))

    def _buffer(self, P: np.ndarray) -> None:
        self.P, self.lap = P, _laplacian_2d(P, np.zeros(P.size), self.stencil2d, np.zeros(P.size))

    def diffusion(self, u: np.ndarray) -> np.ndarray:
        """(1/h**2) stencil(A*u), the divergence form."""
        if self.P.shape[:-2] != u.shape[:-2]:
            self._buffer(np.empty(u.shape[:-2] + self.Ap.shape))
        self.P[..., 1:-1, 1:-1] = u
        np.multiply(self.Ap, _fill_ghosts(self.P, self.grid.bc), out=self.P)
        return self.lap()[..., 1:-1, 1:-1] / self.grid.h**2

    def __call__(self, u: np.ndarray) -> np.ndarray:
        out = self.diffusion(u)
        if self.reaction.kind != "none":
            out += self.reaction(u)
        return u + self.grid.k * out


@dataclass(frozen=True)
class EllipticCoefficients:
    """Learnable medium: diffusion field A, convection field B, reaction C.

    A and B are per-node real fields shaped like the grid (B may be None).
    A >= 0 is required for the usual stability analysis but is not enforced:
    learned A may go negative and cfl_check flags the consequence.
    """

    A: np.ndarray
    B: np.ndarray | None = None
    C: ReactionSpec = no_reaction()

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        if self.B is not None:
            object.__setattr__(self, "B", np.asarray(self.B, dtype=float))

    @classmethod
    def constant(cls, grid: GridSpec, a: float,
                 reaction: ReactionSpec = no_reaction()) -> "EllipticCoefficients":
        return cls(np.full(grid.shape, float(a)), None, reaction)

    def validate_against(self, grid: GridSpec) -> None:
        if self.A.shape != grid.shape:
            raise ValueError(f"A shape {self.A.shape} does not match grid {grid.shape}")
        if self.B is not None:
            if self.B.shape != grid.shape:
                raise ValueError(f"B shape {self.B.shape} does not match grid {grid.shape}")
            if grid.ndim != 1 and np.any(self.B != 0.0):
                raise ValueError("convection B is only supported on 1D grids")


def diffusion_term(u: np.ndarray, A: np.ndarray, grid: GridSpec,
                   stencil2d: str = "5pt") -> np.ndarray:
    """Second difference of the product A*u: (1/h**2) * stencil(A*u).

    The divergence form. In 2D it is the explicit step's own diffusion,
    _Step2D.diffusion; in 1D it is the reference the per-node step taps are
    checked against. An unknown stencil name is refused on every grid.
    """
    if grid.ndim == 2:
        return _Step2D(A, grid, stencil2d).diffusion(u)
    _known_stencil(stencil2d)    # refused on a 1D grid too, as by _laplacian_2d in 2D
    P = pad_coefficient(A, grid.bc) * pad(u, grid.bc)
    return _apply_taps(np.array([1.0, -2.0, 1.0]), P) / grid.h**2


def elliptic_apply(field: np.ndarray, coeffs: EllipticCoefficients,
                   grid: GridSpec, stencil2d: str = "5pt") -> np.ndarray:
    """Evaluate the quasi-linear elliptic operator O_L on one field slice."""
    field = np.asarray(field, dtype=float)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    coeffs.validate_against(grid)
    out = diffusion_term(field, coeffs.A, grid, stencil2d)
    if coeffs.B is not None and grid.ndim == 1:
        up = pad(field, grid.bc)
        out += coeffs.B * (up[2:] - up[:-2]) / (2.0 * grid.h)
    if coeffs.C.kind != "none":
        out += coeffs.C(field)
    return out
