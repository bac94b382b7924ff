"""Grids, boundary conditions, and ghost-cell padding.

Every solver and generated block in this package works on a uniform grid
described by two step sizes: the spatial step ``h`` (network width per node)
and the time step ``k`` (one layer per step). Boundary handling is done by
padding fields with ghost cells before applying a stencil:

    periodic   ghost cells wrap around the domain
    mirror     ghost cells reflect about the boundary node (edge not repeated)
    extend     ghost cells replicate the edge node
    dirichlet  ghost cells are filled with a fixed boundary value

With nodes at x = 0, h, ..., (n-1) h, the boundary each rule imposes is:
periodic, period n h; dirichlet, u = value at x = -h and x = n h; mirror,
(A u)' = 0 at the edge nodes; extend, (A u)' = 0 half a cell outside them.
Under dirichlet a coefficient is edge-replicated (_coefficient_bc), so a
nonzero value with a non-uniform A is first order at the edge: node 0's left
tap weighs the value by A_0, not by A at x = -h. 2D grids are square (same
n_points and h on both axes).

The rule lives in one table, _GHOST_SOURCE (which cell each ghost copies).
_ghost_fill applies it along a buffer's last axis; _fill_ghosts and pad are
made of it. _ghost_scatter, its adjoint, folds ghosts back onto the cells
they copy, for the training gradient, the band matrix and the implicit bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BC_KINDS = ("dirichlet", "periodic", "mirror", "extend")


@dataclass(frozen=True)
class BoundaryCondition:
    """One padding rule per grid; ``value`` is only meaningful for dirichlet."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if not np.isfinite(self.value):
            raise ValueError("dirichlet boundary value must be finite")


def dirichlet(value: float = 0.0) -> BoundaryCondition:
    return BoundaryCondition("dirichlet", float(value))


def periodic() -> BoundaryCondition:
    return BoundaryCondition("periodic")


def mirror() -> BoundaryCondition:
    return BoundaryCondition("mirror")


def extend() -> BoundaryCondition:
    return BoundaryCondition("extend")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: ``n_points`` per axis, spatial step ``h``, time step ``k``.

    ``h`` and ``k`` are the two hyper-parameters controlling the width and the
    depth of the generated network; ``r = k/h**2`` is the mesh ratio that
    governs explicit stability.
    """

    n_points: int
    h: float
    k: float
    bc: BoundaryCondition
    ndim: int = 1

    def __post_init__(self):
        if self.ndim not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if self.n_points < 3:
            raise ValueError("grid too small: need n_points >= 3 for a 3-point stencil")
        for name in ("h", "k"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and positive, got {v}")

    @property
    def r(self) -> float:
        """Mesh ratio k/h**2."""
        return self.k / self.h**2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.ndim


def make_grid(n_points: int, h: float, k: float, bc: BoundaryCondition,
              ndim: int = 1) -> GridSpec:
    """Validate and build a GridSpec. Rejects n_points < 3 and non-positive h, k."""
    return GridSpec(int(n_points), float(h), float(k), bc, ndim)


def pad(field: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """A fresh 1D or 2D ``field`` with one ghost cell per side per axis, filled
    by the one ghost rule: periodic wraps, mirror reflects without repeating
    the edge cell, extend replicates it, dirichlet fills the boundary value.
    Another rank, or an axis of fewer than 2 cells, raises ValueError.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim not in (1, 2) or min(field.shape) < 2:
        raise ValueError(f"pad needs a 1D or 2D field with at least 2 cells per axis, "
                         f"got shape {field.shape}")
    P = np.empty(tuple(m + 2 for m in field.shape))
    P[(slice(1, -1),) * field.ndim] = field
    return _ghost_fill(P, bc) if field.ndim == 1 else _fill_ghosts(P, bc)


def _coefficient_bc(bc: BoundaryCondition) -> BoundaryCondition:
    """The ghost rule of a coefficient field (A or B) on a grid with rule
    ``bc``: the grid's own, except under dirichlet, where the boundary value
    constrains u, not the medium, and the coefficient is edge-replicated."""
    return extend() if bc.kind == "dirichlet" else bc


def pad_coefficient(coeff: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Pad a coefficient field (A or B) by its ghost rule, _coefficient_bc(bc)."""
    return pad(coeff, _coefficient_bc(bc))


# The one ghost rule. Index, along a padded axis, of the cell each ghost
# copies: (low ghost, high ghost) per bc. Dirichlet ghosts hold bc.value.
_GHOST_SOURCE = {"periodic": (-2, 1), "mirror": (2, -3), "extend": (1, -2)}


def _ghost_fill(P: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Set the ghost cells of P's last axis from its interior P[..., 1:-1].

    Every padded row of the package is filled here. Returns P.
    """
    if bc.kind == "dirichlet":
        P[..., 0] = P[..., -1] = bc.value
    else:
        lo, hi = _GHOST_SOURCE[bc.kind]
        if P.ndim == 1:     # plain indices take half the time of P[..., i]
            P[0], P[-1] = P[lo], P[hi]
        else:
            P[..., 0] = P[..., lo]
            P[..., -1] = P[..., hi]
    return P


def _fill_ghosts(P: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Set the ghost cells of P's last two axes from its interior: _ghost_fill
    along the columns (interior ones only), then along every row, so a corner
    is the last axis's rule applied to a ghost row, as np.pad does. Returns P.
    """
    _ghost_fill(np.swapaxes(P, -1, -2)[..., 1:-1, :], bc)
    return _ghost_fill(P, bc)


def _ghost_scatter(G: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Adjoint of _ghost_fill's linear part: add each ghost of G's last axis
    onto the cell it copies (in place) and return the interior view.
    """
    if bc.kind != "dirichlet":
        lo, hi = _GHOST_SOURCE[bc.kind]
        G[..., lo] += G[..., 0]
        G[..., hi] += G[..., -1]
    return G[..., 1:-1]
