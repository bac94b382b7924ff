"""Neural building blocks generated from the discretized PDE.

One explicit solver step is one layer. The per-node 3-tap diffusion stencil,
scaled by the time step and with the Euler identity folded into the center
tap, is a 1D convolution kernel; a per-node diffusion field under a named 3x3
Laplacian stencil is a 2D convolution layer; a full-size kernel with one
channel per output neuron is a dense layer; the traveling-wave substitution
tau = z - v t turns depth propagation into a two-level recurrence, i.e. an RNN
cell; the explicit one-step matrix assembled from the variable-coefficient
stencil supplies the coupling weights of an RBM energy.

The central contract is generator/solver equivalence: a generated block's
forward pass reproduces the corresponding solver step. For conv blocks it
holds by construction: gen_conv1d's kernels are stencil._step_taps, and a
block runs the solver's step built from them, stencil._Step1D; a gen_conv2d
block runs the solver's 2D step, stencil._Step2D, on its A; an RNN cell runs
a conv1d block's step plus two scalar couplings. The RBM matrix lays taps out
densely in O(n). Reaction terms enter conv blocks with weight k, evaluated on
the input slice (diffuse first, react on the pre-update slice); dense layers
compose their activation in the usual y = act(W x + b) sense. Each block has
the one forward its generator runs; the independent routes, the dense
per-channel sums among them, are verify's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .grid import pad  # noqa: F401 (npde.blocks.pad stays bound; no block calls it)
from .reactions import ReactionSpec, no_reaction
from .stencil import EllipticCoefficients, _band_matrix, _Step1D, _Step2D, _step_taps


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)    # a copy: a frozen block owns its arrays
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Conv1DBlock:
    """Per-output-node 3-tap kernels with the Euler identity folded in.

    kernels[j] = [W_{j-1}, W_j, W_{j+1}] acts on the padded field around node
    j. ``forward`` equals one explicit solver step for the generating
    coefficients: x + F(x), a ResNet update with its skip in the centre tap.
    """

    kernels: np.ndarray           # (n, 3)
    grid: GridSpec
    activation: ReactionSpec = no_reaction()

    def __post_init__(self):
        k = _finite("kernels", self.kernels)
        if k.ndim != 2 or k.shape[1] != 3 or k.shape[0] != self.grid.n_points:
            raise ValueError("kernels must be (n_points, 3)")
        # column-major: kernels.T is the tap rows; the step is no field, so no file holds it
        object.__setattr__(self, "kernels", np.asfortranarray(k))
        object.__setattr__(self, "_step", _Step1D(self.kernels.T, self.grid, self.activation))

    def forward(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid.shape:
            raise ValueError(f"field shape {u.shape} does not match grid {self.grid.shape}")
        return self._step(u)


@dataclass(frozen=True)
class Conv2DBlock:
    """Per-node diffusion field A of one explicit 2D step and its named stencil.

    ``forward`` is the solver's 2D step for the generating coefficients. A
    leading channel axis rides along: each channel is stepped alike.
    """

    A: np.ndarray                 # (n, n)
    grid: GridSpec
    stencil2d: str = "5pt"
    activation: ReactionSpec = no_reaction()

    def __post_init__(self):
        A = _finite("A", self.A)
        if self.grid.ndim != 2 or A.shape != self.grid.shape:
            raise ValueError("a 2D conv block needs a 2D grid and an A shaped to it")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "_step", _Step2D(A, self.grid, self.stencil2d, self.activation))

    def forward(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim not in (2, 3) or u.shape[-2:] != self.grid.shape:
            raise ValueError(f"field shape {u.shape} does not match grid {self.grid.shape}")
        return self._step(u)


@dataclass(frozen=True)
class DenseBlock:
    """Full-connection layer; channel i of the per-channel view (verify's oracle) is row i of W."""

    W: np.ndarray                 # (l, m)
    bias: np.ndarray              # (l,)
    activation: ReactionSpec = no_reaction()

    def __post_init__(self):
        W = _finite("W", self.W)
        b = _finite("bias", self.bias)
        if W.ndim != 2:
            raise ValueError("W must be a matrix")
        if b.shape != (W.shape[0],):
            raise ValueError("bias length must equal the output count")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "_act", self.activation._activation()[0])

    def forward(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.W.shape[1],):
            raise ValueError(f"input length {u.shape} does not match W columns {self.W.shape[1]}")
        return self._act(self.W @ u + self.bias)


def gen_conv1d(coeffs: EllipticCoefficients, grid: GridSpec) -> Conv1DBlock:
    """Generate the 1D conv layer of one explicit step.

    Kernel row j is k * (1/h**2)[A_{j-1}, -2 A_j, A_{j+1}] plus the identity
    at the center tap; a nonzero convection B is folded into the side taps.
    forward() then equals step_explicit for the same coefficients.
    """
    if grid.ndim != 1:
        raise ValueError("gen_conv1d expects a 1D grid")
    coeffs.validate_against(grid)
    return Conv1DBlock(_step_taps(coeffs.A, coeffs.B, grid).T, grid, coeffs.C)


def gen_conv2d(coeffs: EllipticCoefficients, grid: GridSpec,
               stencil2d: str = "5pt") -> Conv2DBlock:
    """Generate the 2D conv layer of one explicit step: the per-node A, the
    named stencil and the reaction C as its activation. forward() then equals
    step_explicit for the same coefficients and stencil, bit for bit.
    """
    coeffs.validate_against(grid)
    return Conv2DBlock(coeffs.A, grid, stencil2d, coeffs.C)


def gen_dense(W: np.ndarray, bias: np.ndarray,
              activation: ReactionSpec = no_reaction()) -> DenseBlock:
    """Build a dense layer; forward(u) = activation(W u + bias)."""
    return DenseBlock(W, bias, activation)


@dataclass(frozen=True)
class RNNCell:
    """Two-level recurrence of the traveling-wave discretization.

    State update: u_{tau+1} = step(u_tau) + w_prev u_{tau-1} + w_in f(tau),
    where step is the 1D step of a Conv1DBlock with these kernels; the stacked
    state [u_tau; u_{tau-1}] shifts by one. Dxy, Dz and v are kept for
    provenance.
    """

    kernels: np.ndarray           # (n, 3)
    grid: GridSpec
    w_prev: float
    w_in: float
    Dxy: float
    Dz: float
    v: float

    def __post_init__(self):
        conv = Conv1DBlock(self.kernels, self.grid)
        object.__setattr__(self, "kernels", conv.kernels)
        object.__setattr__(self, "_conv", conv)
        for name in ("w_prev", "w_in"):
            object.__setattr__(self, name, float(_finite(name, getattr(self, name))))


def gen_rnn_cell(Dxy: float, Dz: float, v: float, grid: GridSpec) -> RNNCell:
    """Closed-form RNN cell from the traveling-wave recurrence.

    Solving -v (u_{tau+1} - u_tau)/k = Dxy L_T u_tau
            + Dz (u_{tau+1} - 2 u_tau + u_{tau-1})/h**2 + f
    for u_{tau+1}, with den = v h**2 + k Dz, gives the 1D step's taps for the
    uniform medium A = -Dxy h**2/den with identity (v h**2 + 2 k Dz)/den (L_T
    pads by the grid's rule, a dirichlet value included), w_prev = -k Dz/den
    and w_in = -k h**2/den. k -> 0 freezes the recurrence and Dz = 0 gives
    step = I - (k/v) Dxy L_T, w_prev = 0, w_in = -k/v.

    Marched toward +tau, a cell with Dxy > 0 is the backward heat equation
    across the transverse grid and grows, its highest mode by about
    1 + 4 k Dxy/(v h**2) per step; Dxy <= 0 is the diffusive sign.
    """
    if grid.ndim != 1:
        raise ValueError("gen_rnn_cell expects a 1D transverse grid")
    if v <= 0:
        raise ValueError("propagation speed v must be positive")
    h, k = grid.h, grid.k
    den = v * h**2 + k * Dz
    if den == 0.0:
        raise ValueError("degenerate denominator v*h**2 + k*Dz = 0")
    taps = _step_taps(np.full(grid.n_points, -Dxy * h**2 / den), None, grid,
                      (v * h**2 + 2.0 * k * Dz) / den)
    return RNNCell(taps.T, grid, -k * Dz / den, -k * h**2 / den,
                   float(Dxy), float(Dz), float(v))


def rnn_forward(cell: RNNCell, h_prev: np.ndarray, f_input: np.ndarray) -> np.ndarray:
    """Advance the stacked state [u_tau; u_{tau-1}] one recurrence step."""
    h_prev = np.asarray(h_prev, dtype=float)
    f_input = np.asarray(f_input, dtype=float)
    n = cell.grid.n_points
    if h_prev.shape != (2 * n,):
        raise ValueError(f"stacked state must have 2n = {2 * n} entries")
    if f_input.shape != (n,):
        raise ValueError(f"input must have n = {n} entries")
    u_t, u_tm1 = h_prev[:n], h_prev[n:]
    top = cell._conv.forward(u_t)
    top += cell.w_prev * u_tm1
    top += cell.w_in * f_input
    return np.concatenate([top, u_t])


@dataclass(frozen=True)
class RBMEnergy:
    """Bilinear energy E(v,h) = -v^T W h - b^T v - c^T h.

    W is assembled from the variable-coefficient stencil band and is not
    symmetrized (it is symmetric only for constant A).
    """

    W: np.ndarray                 # (n_visible, n_hidden)
    b: np.ndarray                 # (n_visible,)
    c: np.ndarray                 # (n_hidden,)

    def __post_init__(self):
        W = _finite("W", self.W)
        b = _finite("b", self.b)
        c = _finite("c", self.c)
        if W.ndim != 2 or b.shape != (W.shape[0],) or c.shape != (W.shape[1],):
            raise ValueError("inconsistent RBM shapes")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


def gen_rbm(coeffs: EllipticCoefficients, grid: GridSpec) -> RBMEnergy:
    """Assemble RBM couplings from the explicit one-step matrix I + k*diff.

    Visible units are the old slice, hidden units the new slice; the
    tridiagonal band ties each hidden unit to its stencil neighborhood. Both
    biases start at zero.
    """
    if grid.ndim != 1:
        raise ValueError("gen_rbm expects a 1D grid")
    coeffs.validate_against(grid)
    n = grid.n_points
    return RBMEnergy(_band_matrix(_step_taps(coeffs.A, None, grid), grid.bc),
                     np.zeros(n), np.zeros(n))


def rbm_free_energy(rbm: RBMEnergy, v: np.ndarray) -> float:
    """F(v) = -b^T v - sum_h log(1 + exp(c_h + (W^T v)_h)), overflow-safe."""
    v = np.asarray(v, dtype=float)
    if v.shape != (rbm.W.shape[0],):
        raise ValueError("visible vector length does not match W")
    x = rbm.c + rbm.W.T @ v
    # log(1 + e^x) = logaddexp(0, x) avoids overflow for large |x|
    return float(-(rbm.b @ v) - np.sum(np.logaddexp(0.0, x)))
