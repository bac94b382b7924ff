import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from npde.reactions import (ReactionSpec, fisher, gray_scott, linear,
                            no_reaction, sigmoid, sigmoid_reaction, source)


def test_fisher_values_and_roots():
    rxn = fisher(2.0)
    np.testing.assert_allclose(rxn(np.array([0.0, 0.5, 1.0])), [0.0, 0.5, 0.0])


def test_sigmoid_stable_at_extremes():
    vals = sigmoid(np.array([-800.0, 0.0, 800.0]))
    np.testing.assert_allclose(vals, [0.0, 0.5, 1.0], atol=1e-15)
    assert np.all(np.isfinite(vals))


def _sigmoid_per_sign(x):
    """Reference: one branch per sign, each on its own gathered entries."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_match_per_sign_reference():
    x = np.concatenate([[800.0, -800.0, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
                        50.0 * np.random.default_rng(7).standard_normal(2000)])
    with np.errstate(invalid="ignore"):
        got, ref = sigmoid(x), _sigmoid_per_sign(x)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
    assert got[0] == 1.0 and got[1] == 0.0 and got[2] == 0.5 and np.isnan(got[4])


def test_sigmoid_derivative_bits_are_the_closed_form():
    u = np.concatenate([[800.0, -800.0, 0.0, -0.0, 1e300, -1e300],
                        30.0 * np.random.default_rng(3).standard_normal(500)])
    for rate in (1.0, -2.5, 0.37):
        s = sigmoid(rate * u)
        want = (rate * s * (1.0 - s)).view(np.int64)
        rxn = sigmoid_reaction(rate)
        np.testing.assert_array_equal(rxn.deriv(u).view(np.int64), want)
        np.testing.assert_array_equal(rxn.activate_deriv(u).view(np.int64), want)


def test_reaction_none_call_vs_activate():
    rxn = no_reaction()
    z = np.array([1.0, -2.0])
    np.testing.assert_array_equal(rxn(z), [0.0, 0.0])       # additive term
    np.testing.assert_array_equal(rxn.activate(z), z)        # composed map


def test_linear_reaction():
    np.testing.assert_allclose(linear(3.0)(np.array([1.0, 2.0])), [3.0, 6.0])


def test_source_reaction_returns_field():
    field = np.array([1.0, 2.0, 3.0])
    rxn = source(field)
    np.testing.assert_array_equal(rxn(np.zeros(3)), field)
    with pytest.raises(ValueError):
        rxn(np.zeros(4))
    with pytest.raises(ValueError):
        rxn.activate(np.zeros(3))


def test_derivatives_match_finite_differences():
    eps = 1e-7
    z = np.linspace(-2.0, 2.0, 9)
    for rxn in (fisher(0.8), sigmoid_reaction(1.7), linear(2.5)):
        fd = (rxn(z + eps) - rxn(z - eps)) / (2 * eps)
        np.testing.assert_allclose(rxn.deriv(z), fd, atol=1e-6)
        fd_act = (rxn.activate(z + eps) - rxn.activate(z - eps)) / (2 * eps)
        np.testing.assert_allclose(rxn.activate_deriv(z), fd_act, atol=1e-6)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ReactionSpec("tanh")
    with pytest.raises(ValueError):
        ReactionSpec("fisher", float("nan"))


def test_gray_scott_kinetics():
    rxn = gray_scott(0.04, 0.06)
    U, V = np.array([1.0]), np.array([0.0])
    np.testing.assert_allclose(rxn.f(U, V), [0.0])
    np.testing.assert_allclose(rxn.g(U, V), [0.0])
    U, V = np.array([0.5]), np.array([0.25])
    np.testing.assert_allclose(rxn.f(U, V), [-0.5 * 0.0625 + 0.04 * 0.5])
    np.testing.assert_allclose(rxn.g(U, V), [0.5 * 0.0625 - 0.1 * 0.25])


PLANES = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[arrays(float, (n, n), elements=st.floats(-0.0, 1.0))] * 2))


@settings(max_examples=200)
@given(UV=PLANES, F=st.floats(0.0, 0.2), kr=st.floats(0.0, 0.2))
def test_gray_scott_fused_equals_f_and_g_bit_for_bit(UV, F, kr):
    U, V = UV
    U0, V0 = U.copy(), V.copy()
    rxn = gray_scott(F, kr)
    out = np.full((2,) + U.shape, np.nan)
    rxn.fused(U, V, out, np.empty(U.shape))
    np.testing.assert_array_equal(out[0].view(np.int64), rxn.f(U, V).view(np.int64))
    np.testing.assert_array_equal(out[1].view(np.int64), rxn.g(U, V).view(np.int64))
    np.testing.assert_array_equal(U.view(np.int64), U0.view(np.int64))
    np.testing.assert_array_equal(V.view(np.int64), V0.view(np.int64))
