"""Grids, boundary conditions, and ghost-cell padding.

Every solver and generated block in this package works on a uniform grid
described by two step sizes: the spatial step ``h`` (network width per node)
and the time step ``k`` (one layer per step). Boundary handling is done by
padding fields with ghost cells before applying a stencil:

    periodic   ghost cells wrap around the domain
    mirror     ghost cells reflect about the boundary node (edge not repeated)
    extend     ghost cells replicate the edge node
    dirichlet  ghost cells are filled with a fixed boundary value

Mirror padding reflects without duplicating the edge cell, which preserves a
zero normal derivative to first order. 2D grids are square (same n_points and
h on both axes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PAD_KINDS = ("dirichlet", "periodic", "mirror", "extend")


@dataclass(frozen=True)
class BoundaryCondition:
    """One padding rule per grid; ``value`` is only meaningful for dirichlet."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _PAD_KINDS:
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


def pad(field: np.ndarray, bc: BoundaryCondition, width: int = 1) -> np.ndarray:
    """Extend ``field`` by ``width`` ghost cells per side along every axis.

    periodic wraps, mirror reflects without repeating the edge cell, extend
    replicates the edge cell, dirichlet fills the boundary value. Interior
    values are always unchanged.
    """
    if width < 1:
        raise ValueError("pad width must be >= 1")
    field = np.asarray(field, dtype=float)
    if bc.kind == "periodic":
        return np.pad(field, width, mode="wrap")
    if bc.kind == "mirror":
        # np.pad 'reflect' excludes the edge sample, matching the mirror rule;
        # it needs width <= n-1 source cells to reflect from.
        if min(field.shape) - 1 < width:
            raise ValueError("mirror pad width exceeds reflectable interior")
        return np.pad(field, width, mode="reflect")
    if bc.kind == "extend":
        return np.pad(field, width, mode="edge")
    return np.pad(field, width, mode="constant", constant_values=bc.value)


def pad_coefficient(coeff: np.ndarray, bc: BoundaryCondition, width: int = 1) -> np.ndarray:
    """Pad a coefficient field (A or B) to supply ghost-node medium values.

    Coefficients follow the grid geometry for periodic/mirror/extend; under
    dirichlet the boundary value constrains u, not the medium, so the
    coefficient is edge-replicated instead.
    """
    if bc.kind == "dirichlet":
        return pad(coeff, extend(), width)
    return pad(coeff, bc, width)


# Index, along a padded axis, of the cell each width-1 ghost copies: (low
# ghost, high ghost) per bc. Dirichlet ghosts hold bc.value instead.
_GHOST_SOURCE = {"periodic": (-2, 1), "mirror": (2, -3), "extend": (1, -2)}


def _ghost_fill(P: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Set the ghost cells of P's last axis from its interior P[..., 1:-1].

    Each row of P then equals pad(row interior, bc, 1) bit for bit. Returns P.
    """
    if bc.kind == "dirichlet":
        P[..., 0] = P[..., -1] = bc.value
    else:
        lo, hi = _GHOST_SOURCE[bc.kind]
        P[..., 0] = P[..., lo]
        P[..., -1] = P[..., hi]
    return P


def _fill_ghosts(P: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Set the width-1 ghost cells of P's last two axes from its interior.

    Each P[c] then equals pad(P[c, 1:-1, 1:-1], bc, 1) bit for bit: rows
    first, then full columns (_ghost_fill), so corners pad the padded rows as
    np.pad does. Returns P.
    """
    if bc.kind == "dirichlet":
        P[..., 0, :] = P[..., -1, :] = bc.value
    else:
        lo, hi = _GHOST_SOURCE[bc.kind]
        P[..., 0, 1:-1] = P[..., lo, 1:-1]
        P[..., -1, 1:-1] = P[..., hi, 1:-1]
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
