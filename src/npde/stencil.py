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

(both unscaled; divide by h**2 where a physical Laplacian is needed).

With a per-node diffusion field A the operator becomes the variable stencil
(1/h**2)[A_{j-1}, -2 A_j, A_{j+1}], i.e. the second difference of the product
A*u. The full quasi-linear elliptic operator applied here is

    O_L u = diff(A, u) + B * centered_first_difference(u)/(2h) + C(u)

with C a pointwise reaction. The gradient-of-A cross term is absorbed into B,
so B is the effective convection coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BoundaryCondition, GridSpec, pad, pad_coefficient
from .reactions import ReactionSpec, no_reaction

STENCILS_2D = ("5pt", "9pt")


def laplacian_1d(h: float) -> np.ndarray:
    """3-point second-derivative stencil [1, -2, 1] scaled by 1/h**2."""
    if h <= 0:
        raise ValueError("h must be positive")
    return np.array([1.0, -2.0, 1.0]) / h**2


def laplacian_2d_5pt() -> np.ndarray:
    """5-point transverse Laplacian taps (unscaled)."""
    return np.array([[0.0, 1.0, 0.0],
                     [1.0, -4.0, 1.0],
                     [0.0, 1.0, 0.0]])


def laplacian_2d_9pt() -> np.ndarray:
    """9-point transverse Laplacian taps including the diagonals (unscaled)."""
    return np.array([[0.25, 0.5, 0.25],
                     [0.5, -3.0, 0.5],
                     [0.25, 0.5, 0.25]])


def stencil_2d(name: str) -> np.ndarray:
    if name not in STENCILS_2D:
        raise ValueError(f"unknown 2D stencil {name!r}; expected one of {STENCILS_2D}")
    return laplacian_2d_5pt() if name == "5pt" else laplacian_2d_9pt()


def variable_stencil_1d(a_left: float, a_center: float, a_right: float,
                        h: float) -> np.ndarray:
    """Per-node diffusion taps (1/h**2)[A_{j-1}, -2 A_j, A_{j+1}]."""
    if h <= 0:
        raise ValueError("h must be positive")
    return np.array([a_left, -2.0 * a_center, a_right]) / h**2


def _correlate_1d(padded: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """3-tap correlation along the last axis; leading axes ride along."""
    return taps[0] * padded[..., :-2] + taps[1] * padded[..., 1:-1] + taps[2] * padded[..., 2:]


def _correlate_2d(padded: np.ndarray, taps: np.ndarray) -> np.ndarray:
    n0, n1 = padded.shape[0] - 2, padded.shape[1] - 2
    out = np.zeros((n0, n1))
    for i in range(3):
        for j in range(3):
            w = taps[i, j]
            if w != 0.0:
                out += w * padded[i:i + n0, j:j + n1]
    return out


def apply_stencil(field: np.ndarray, s: np.ndarray,
                  bc: BoundaryCondition) -> np.ndarray:
    """Slide stencil ``s`` over ``field`` padded by one ghost cell per side.

    out_j = sum_i s_i * padded(field)_{j+i}; the output has the input shape.
    1D stencils are 3 taps, 2D stencils 3x3; their dimensionality must match
    the field.
    """
    field = np.asarray(field, dtype=float)
    s = np.asarray(s, dtype=float)
    padded = pad(field, bc, 1)
    if field.ndim == 1 and s.shape == (3,):
        return _correlate_1d(padded, s)
    if field.ndim == 2 and s.shape == (3, 3):
        return _correlate_2d(padded, s)
    raise ValueError(f"stencil shape {s.shape} does not match field ndim {field.ndim}")


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
    def constant(cls, grid: GridSpec, a: float, b: float | None = None,
                 reaction: ReactionSpec = no_reaction()) -> "EllipticCoefficients":
        A = np.full(grid.shape, float(a))
        B = None if b is None else np.full(grid.shape, float(b))
        return cls(A, B, reaction)

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

    This is the divergence-form discretization used by the explicit scheme,
    so generated conv blocks and solver steps agree bit for bit.
    """
    P = pad_coefficient(A, grid.bc, 1) * pad(u, grid.bc, 1)
    if grid.ndim == 1:
        return _correlate_1d(P, np.array([1.0, -2.0, 1.0])) / grid.h**2
    return _correlate_2d(P, stencil_2d(stencil2d)) / grid.h**2


def convection_term(u: np.ndarray, B: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered first difference B * (u_{j+1} - u_{j-1}) / (2h), 1D only."""
    if grid.ndim != 1:
        raise ValueError("convection B is only supported on 1D grids")
    up = pad(u, grid.bc, 1)
    return B * (up[2:] - up[:-2]) / (2.0 * grid.h)


def elliptic_apply(field: np.ndarray, coeffs: EllipticCoefficients,
                   grid: GridSpec, stencil2d: str = "5pt") -> np.ndarray:
    """Evaluate the quasi-linear elliptic operator O_L on one field slice."""
    field = np.asarray(field, dtype=float)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    coeffs.validate_against(grid)
    out = diffusion_term(field, coeffs.A, grid, stencil2d)
    if coeffs.B is not None and grid.ndim == 1:
        out += convection_term(field, coeffs.B, grid)
    if coeffs.C.kind != "none":
        out += coeffs.C(field)
    return out
