"""Pointwise reaction terms C(u) and two-component reaction pairs.

The reaction term doubles as the activation nonlinearity of generated blocks:
fisher is the logistic growth r*u*(1-u), sigmoid is the logistic function
1/(1+exp(-r*u)), linear is r*u. One table gives these rate kinds, and none,
C's linear part l (the rate, or 0) and the rest R = C - l u: C and dC/du are
built from them (fisher's C rounds as r*u - r*u**2), and an explicit 1D step
folds l into its centre tap. source adds a fixed forcing field, a read-only
copy (the absorbed-intensity term of the heat-conduction form). A two-component pair
fills a solver's (2, n, n) buffer through its fused evaluator (gray_scott
computes U V^2 once), or else by copying f(U, V) and g(U, V), bit for bit alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    # exp(-|x|) cannot overflow; a NaN keeps its sign bit, as with one branch per sign
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def _sigmoid_slope(rate, s):
    """d/du sigmoid(rate * u) = rate * s * (1 - s), read off s = sigmoid(rate * u)."""
    return rate * s * (1.0 - s)


# kind -> (folds, R(rate, u), dR/du(rate, u)) with C = l u + R, l = rate if the
# kind folds else 0, None for R = 0; "source", a fixed field, has no rate
_RATE_KINDS = {
    "none": (False, None, None),
    "fisher": (True, lambda r, u: -r * u * u, lambda r, u: -2.0 * r * u),
    "sigmoid": (False, lambda r, u: sigmoid(r * u), lambda r, u: _sigmoid_slope(r, sigmoid(r * u))),
    "linear": (True, None, None),
}


@dataclass(frozen=True)
class ReactionSpec:
    """A named pointwise nonlinearity with its derivative.

    kind: one of none | fisher(rate) | sigmoid(gain) | linear(rate) | source.
    """

    kind: str = "none"
    rate: float = 0.0
    source: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == "source":
            if self.source is None:
                raise ValueError("source reaction needs a forcing field")
            s = np.array(self.source, dtype=float)
            if not np.all(np.isfinite(s)):
                raise ValueError("source field must be finite")
            s.flags.writeable = False
            object.__setattr__(self, "source", s)
        elif self.kind not in _RATE_KINDS:
            raise ValueError(f"unknown reaction kind {self.kind!r}")
        elif not np.isfinite(self.rate):
            raise ValueError("reaction rate must be finite")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "source":
            if self.source.shape != u.shape:
                raise ValueError("source field shape does not match the field")
            return self.source.copy()
        folds, rest, _ = _RATE_KINDS[self.kind]
        if rest is None:
            return self.rate * u if folds else np.zeros_like(u)
        return self.rate * u + rest(self.rate, u) if folds else rest(self.rate, u)

    def deriv(self, u):
        """d/du of the reaction, l + dR/du, used by reverse-mode gradients."""
        u = np.asarray(u, dtype=float)
        folds, _, slope = _RATE_KINDS.get(self.kind, (False, None, None))
        if slope is None:
            return np.full_like(u, self.rate if folds else 0.0)
        return self.rate + slope(self.rate, u) if folds else slope(self.rate, u)

    def split(self, k: float):
        """(k l, k R, k dR/du) for C(u) = l u + R(u): l is C's part linear in u,
        which an explicit 1D step of time step k folds into its centre tap; k R
        and k dR/du are functions of u, None where they vanish. A kind that
        folds is its rate times a function of u, so there k R is R at rate k r."""
        if self.kind == "source":
            return 0.0, lambda u: k * self(u), None
        folds, rest, slope = _RATE_KINDS[self.kind]
        if folds:
            return k * self.rate, *(f and partial(f, k * self.rate) for f in (rest, slope))
        return 0.0, *(f and (lambda u, f=f: k * f(self.rate, u)) for f in (rest, slope))

    def activate(self, z):
        """Composed-activation semantics: ``none`` is the identity map.

        Additive reaction semantics (__call__) treat ``none`` as zero; a dense
        layer composing y = act(W x + b) needs identity instead.
        """
        z = np.asarray(z, dtype=float)
        if self.kind == "none":
            return z.copy()
        if self.kind == "source":
            raise ValueError("source term cannot be used as a composed activation")
        return self(z)

    def activate_deriv(self, z):
        """d activate / dz, for reverse-mode passes through dense layers."""
        z = np.asarray(z, dtype=float)
        if self.kind == "none":
            return np.ones_like(z)
        if self.kind == "source":
            raise ValueError("source term cannot be used as a composed activation")
        return self.deriv(z)

    def _activate_deriv_from(self, z, a):
        """activate_deriv(z), reading a sigmoid's slope off a = activate(z)."""
        if self.kind == "sigmoid":
            return _sigmoid_slope(self.rate, a)
        return self.activate_deriv(z)

    @property
    def differentiable(self) -> bool:
        return self.kind in _RATE_KINDS


def no_reaction() -> ReactionSpec:
    return ReactionSpec("none")


def fisher(rate: float) -> ReactionSpec:
    return ReactionSpec("fisher", float(rate))


def sigmoid_reaction(gain: float) -> ReactionSpec:
    return ReactionSpec("sigmoid", float(gain))


def linear(rate: float) -> ReactionSpec:
    return ReactionSpec("linear", float(rate))


def source(values) -> ReactionSpec:
    return ReactionSpec("source", source=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class TwoComponentReaction:
    """Pointwise pair f(U,V), g(U,V) driving a two-component system.

    ``fused(U, V, out, scratch)``, if given, writes f's and g's bits into out[0]
    and out[1] in one pass, using the plane ``scratch``, and never writes U or V.
    """

    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fused: Callable[..., None] | None = field(default=None, compare=False)

    def _fill(self, U, V, out, scratch) -> None:
        """Write f(U, V) into out[0] and g(U, V) into out[1]: fused, else copied."""
        if self.fused is not None:
            self.fused(U, V, out, scratch)
        else:
            out[0] = self.f(U, V)
            out[1] = self.g(U, V)


def gray_scott(feed: float, kill: float) -> TwoComponentReaction:
    """Gray-Scott kinetics: f = -U V^2 + F(1-U), g = U V^2 - (F+kr) V.

    fused computes uvv = (U V) V once, then F(1-U) - uvv and uvv - (F+kr) V:
    negation is exact, so these are f's and g's bits.
    """
    F, kr = float(feed), float(kill)

    def f(U, V):
        return -U * V * V + F * (1.0 - U)

    def g(U, V):
        return U * V * V - (F + kr) * V

    def fused(U, V, out, uvv):
        np.multiply(U, V, out=uvv)
        uvv *= V
        np.subtract(1.0, U, out=out[0])
        out[0] *= F
        out[0] -= uvv
        np.multiply(V, F + kr, out=out[1])
        np.subtract(uvv, out[1], out=out[1])

    return TwoComponentReaction(f"gray_scott(F={F},kr={kr})", f, g, fused)
