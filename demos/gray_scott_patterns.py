#!/usr/bin/env python3
"""Grow Gray-Scott spot patterns and dump V-channel snapshots as PGM.

Feed F=0.04, kill kr=0.06 with Du=2*Dv sits in the spot-splitting regime:
small V seeds on the uniform (U=1, V=0) state divide and colonize the domain.
Snapshots land in ./gray_scott_out/ as plain 8-bit PGM images.
"""

from pathlib import Path

import numpy as np

from npde import gray_scott, gray_scott_start, make_grid, periodic, solve_two_component
from npde.fieldio import save_field_pgm

N = 128
STEPS = 8000
OUT = Path("gray_scott_out")

if __name__ == "__main__":
    grid = make_grid(N, 2.5 / N, 1.0, periodic(), ndim=2)
    centres = [(i * N // 4, j * N // 4) for i, j in ((2, 2), (1, 1), (1, 3), (3, 1), (3, 3))]
    U, V = gray_scott_start(N, np.random.default_rng(42), centres, 3)

    var0 = np.var(V)
    OUT.mkdir(exist_ok=True)
    U, V, frames = solve_two_component(U, V, 2e-5, 1e-5, gray_scott(0.04, 0.06),
                                       grid, STEPS, record_every=1000)
    for i, frame in enumerate(frames, start=1):
        save_field_pgm(OUT / f"v_{i:02d}.pgm", frame)
    print(f"{len(frames)} frames written to {OUT}/")
    print(f"spatial variance of V grew {np.var(V) / var0:.1f}x "
          f"over {STEPS} steps (pattern formation)")
