import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde.grid import (BoundaryCondition, dirichlet, extend, make_grid, mirror,
                       pad, pad_coefficient, periodic)

ALL_BCS = [periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(2.5)]


def test_make_grid_echoes_fields():
    g = make_grid(5, 1.0, 0.1, periodic())
    assert (g.n_points, g.h, g.k, g.bc) == (5, 1.0, 0.1, periodic())
    assert g.ndim == 1


def test_grid_too_small_rejected():
    with pytest.raises(ValueError, match="grid too small"):
        make_grid(2, 1.0, 0.1, periodic())


@pytest.mark.parametrize("h,k", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0),
                                 (float("nan"), 0.1), (1.0, float("inf"))])
def test_nonpositive_or_nonfinite_steps_rejected(h, k):
    with pytest.raises(ValueError):
        make_grid(5, h, k, periodic())


def test_mesh_ratio():
    g = make_grid(100, 0.01, 2.5e-5, dirichlet(0.0))
    assert g.r == pytest.approx(0.25, rel=1e-15)


def test_unknown_bc_kind_rejected():
    with pytest.raises(ValueError):
        BoundaryCondition("crop")


def test_pad_periodic_wraps():
    np.testing.assert_array_equal(pad(np.array([1.0, 2.0, 3.0]), periodic()),
                                  [3, 1, 2, 3, 1])


def test_pad_dirichlet_fills_value():
    np.testing.assert_array_equal(pad(np.array([1.0, 2.0, 3.0]), dirichlet(0.0)),
                                  [0, 1, 2, 3, 0])


def test_pad_mirror_reflects_without_edge():
    np.testing.assert_array_equal(pad(np.array([1.0, 2.0, 3.0]), mirror()),
                                  [2, 1, 2, 3, 2])


def test_pad_extend_replicates_edge():
    np.testing.assert_array_equal(pad(np.array([1.0, 2.0, 3.0]), extend()),
                                  [1, 1, 2, 3, 3])


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("ndim", [1, 2])
def test_pad_keeps_interior(bc, ndim):
    rng = np.random.default_rng(0)
    f = rng.standard_normal((7,) * ndim)
    np.testing.assert_array_equal(pad(f, bc)[(slice(1, -1),) * ndim], f)


@settings(max_examples=150)
@given(bc=st.sampled_from([periodic(), mirror(), extend(), dirichlet(0.0), dirichlet(0.7)]),
       shape=st.lists(st.integers(2, 9), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_pad_equals_numpy_pad(np_pad, bc, shape, seed):
    f = np.random.default_rng(seed).standard_normal(shape)
    np.testing.assert_array_equal(pad(f, bc), np_pad(f, bc))


@pytest.mark.parametrize("shape", [(), (1,), (1, 5), (5, 1), (0,), (3, 3, 3)])
def test_pad_refuses_other_ranks_and_single_cell_axes(shape):
    for bc in ALL_BCS:
        with pytest.raises(ValueError, match="pad needs a 1D or 2D field"):
            pad(np.zeros(shape), bc)


def test_pad_2d_wraps_both_axes():
    f = np.arange(9.0).reshape(3, 3)
    p = pad(f, periodic())
    assert p.shape == (5, 5)
    np.testing.assert_array_equal(p[1:-1, 1:-1], f)
    assert p[0, 1] == f[-1, 0]


def test_pad_coefficient_replicates_under_dirichlet():
    A = np.array([4.0, 5.0, 6.0])
    np.testing.assert_array_equal(pad_coefficient(A, dirichlet(9.0)),
                                  [4, 4, 5, 6, 6])
    np.testing.assert_array_equal(pad_coefficient(A, periodic()),
                                  [6, 4, 5, 6, 4])
