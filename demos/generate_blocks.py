#!/usr/bin/env python3
"""Generate every neural block kind from one discretized medium.

One explicit step of the discretized equation IS one network layer: the
3-tap variable stencil scaled by k with the Euler identity folded in is a 1D
conv kernel, a per-node diffusion field under the 9-point stencil is a 2D conv
layer, the one-step matrix is an RBM coupling, and the traveling-wave
substitution yields an RNN cell. Each block is checked against the solver path
it came from, then serialized to JSON.
"""

from pathlib import Path

import numpy as np

from npde import (EllipticCoefficients, fisher, gen_conv1d, gen_conv2d,
                  gen_dense, gen_rbm, gen_rnn_cell, make_grid, periodic,
                  rbm_free_energy, rnn_forward, step_explicit)
from npde.fieldio import save_block

OUT = Path("blocks_out")

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    n = 32
    grid = make_grid(n, 0.5, 0.05, periodic())
    medium = EllipticCoefficients(rng.uniform(0.2, 1.0, n), None, fisher(0.5))

    conv1d = gen_conv1d(medium, grid)
    u = rng.uniform(0.0, 1.0, n)
    gap = np.max(np.abs(conv1d.forward(u) - step_explicit(u, medium, grid)))
    print(f"conv1d: per-node 3-tap kernels, forward == solver step "
          f"(max gap {gap:.2e})")

    grid2 = make_grid(64, 0.5, 0.02, periodic(), ndim=2)
    medium2 = EllipticCoefficients(rng.uniform(0.2, 1.0, grid2.shape), None, fisher(0.5))
    conv2d = gen_conv2d(medium2, grid2, "9pt")
    u2 = rng.uniform(0.0, 1.0, grid2.shape)
    gap = np.max(np.abs(conv2d.forward(u2) - step_explicit(u2, medium2, grid2, "9pt")))
    print(f"conv2d: per-node A under the 9-point stencil, forward == solver step "
          f"(max gap {gap:.2e})")

    dense = gen_dense(rng.standard_normal((4, n)), np.zeros(4))
    print(f"dense: {dense.W.shape[1]} inputs -> {dense.W.shape[0]} channels, "
          f"row i is channel i's full-size kernel")

    cell = gen_rnn_cell(Dxy=0.5, Dz=0.2, v=1.0, grid=grid)
    state = rnn_forward(cell, np.zeros(2 * n), np.ones(n))
    growth = 1.0 + 4.0 * grid.k * cell.Dxy / (cell.v * grid.h**2)
    print(f"rnn: the 3-tap step plus w_prev, w_in from the traveling-wave recurrence, "
          f"|w_in f| = {np.linalg.norm(state[:n]):.3f} on unit input; "
          f"Dxy > 0 marches the backward heat equation, so its highest mode grows "
          f"about x{growth:.2f} per step (Dxy <= 0 is diffusive)")

    rbm = gen_rbm(medium, grid)
    v = (rng.random(n) > 0.5).astype(float)
    print(f"rbm: tridiagonal couplings from the one-step matrix, "
          f"free energy of a random visible vector {rbm_free_energy(rbm, v):.3f}")

    for name, block in [("conv1d", conv1d), ("conv2d", conv2d),
                        ("dense", dense), ("rnn", cell), ("rbm", rbm)]:
        save_block(OUT / f"{name}.json", block)
    print(f"all five blocks serialized to {OUT}/")
