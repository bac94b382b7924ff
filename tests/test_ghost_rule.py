"""Every ghost cell is filled from one rule, grid._GHOST_SOURCE.

With extend's entry redirected to mirror's, every padded path (fills,
scatters, folded implicit bands and dense band matrices alike) must treat
extend() exactly as mirror(). The ghost-cell twin of test_laplacian_2d.py.
"""

import numpy as np

import npde.grid
from npde.blocks import gen_rbm
from npde.grid import extend, make_grid, mirror, pad
from npde.optim import LossSpec
from npde.reactions import fisher
from npde.solver import solve_forward, step_explicit
from npde.stencil import EllipticCoefficients
from npde.train import DiffusionLayer, Pipeline, batch_gradient


def _outputs(bc):
    """Each ghost-reading path's output under ``bc``, from one seeded case."""
    rng = np.random.default_rng(11)
    g1 = make_grid(9, 0.5, 0.02, bc)
    g2 = make_grid(7, 0.5, 0.01, bc, ndim=2)
    A1, u1 = rng.uniform(0.2, 1.0, g1.shape), rng.uniform(0.0, 1.0, g1.shape)
    A2, u2 = rng.uniform(0.2, 1.0, g2.shape), rng.uniform(0.0, 1.0, g2.shape)
    convection = EllipticCoefficients(A1, rng.uniform(-0.5, 0.5, g1.shape), fisher(0.5))
    diffusion = EllipticCoefficients(A1, None, fisher(0.5))
    model = Pipeline([DiffusionLayer(g1, 3, fisher(0.5))])
    theta = model.init_theta(rng)
    samples = list(zip(rng.uniform(0.0, 1.0, (3, 9)), rng.uniform(0.0, 1.0, (3, 9))))
    return {
        "pad 1D": pad(u1, bc),
        "pad 2D": pad(u2, bc),
        "step_explicit 1D": step_explicit(u1, convection, g1),
        "step_explicit 2D 9pt": step_explicit(u2, EllipticCoefficients(A2, None, fisher(0.5)),
                                              g2, "9pt"),
        "implicit solve": solve_forward(u1, diffusion, g1, 3, "implicit").final(),
        "gen_rbm W": gen_rbm(diffusion, g1).W,
        "DiffusionLayer batch_gradient": batch_gradient(model, theta, samples, LossSpec()),
    }


def test_every_ghost_reads_the_one_rule(monkeypatch):
    extended, mirrored = _outputs(extend()), _outputs(mirror())
    # unpatched, every path tells the two rules apart, so the check below is not vacuous
    assert [name for name in mirrored if np.array_equal(extended[name], mirrored[name])] == []
    monkeypatch.setitem(npde.grid._GHOST_SOURCE, "extend", npde.grid._GHOST_SOURCE["mirror"])
    extended = _outputs(extend())
    for name, expected in mirrored.items():
        np.testing.assert_array_equal(extended[name], expected, err_msg=name)
