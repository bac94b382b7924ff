"""Pointwise reaction terms C(u) and two-component reaction pairs.

The reaction term doubles as the activation nonlinearity of generated blocks:
fisher is the logistic growth r*u*(1-u), sigmoid is the logistic function
1/(1+exp(-r*u)), linear is c*u, and source adds a fixed forcing field (the
absorbed-intensity term of the heat-conduction form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_KINDS = ("none", "fisher", "sigmoid", "linear", "source")
# Activations usable inside differentiable training pipelines.
DIFFERENTIABLE_KINDS = ("none", "fisher", "sigmoid", "linear")


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    # exp(-|x|) cannot overflow; a NaN keeps its sign bit, as with one branch per sign
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


@dataclass(frozen=True)
class ReactionSpec:
    """A named pointwise nonlinearity with its derivative.

    kind: one of none | fisher(rate) | sigmoid(gain) | linear(rate) | source.
    """

    kind: str = "none"
    rate: float = 0.0
    source: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown reaction kind {self.kind!r}")
        if self.kind == "source":
            if self.source is None:
                raise ValueError("source reaction needs a forcing field")
            s = np.asarray(self.source, dtype=float)
            if not np.all(np.isfinite(s)):
                raise ValueError("source field must be finite")
            object.__setattr__(self, "source", s)
        elif not np.isfinite(self.rate):
            raise ValueError("reaction rate must be finite")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "none":
            return np.zeros_like(u)
        if self.kind == "fisher":
            return self.rate * u * (1.0 - u)
        if self.kind == "sigmoid":
            return sigmoid(self.rate * u)
        if self.kind == "linear":
            return self.rate * u
        if self.source.shape != u.shape:
            raise ValueError("source field shape does not match the field")
        return self.source.copy()

    def deriv(self, u):
        """d/du of the reaction, used by reverse-mode gradients."""
        u = np.asarray(u, dtype=float)
        if self.kind == "none":
            return np.zeros_like(u)
        if self.kind == "fisher":
            return self.rate * (1.0 - 2.0 * u)
        if self.kind == "sigmoid":
            return self._activate_deriv_from(u, sigmoid(self.rate * u))
        if self.kind == "linear":
            return np.full_like(u, self.rate)
        return np.zeros_like(u)

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
        """activate_deriv(z) given a = activate(z), the forward pass's output.

        sigmoid' is rate * s * (1 - s) with s = sigmoid(rate * z), read off a
        instead of recomputing it; the other kinds differentiate z itself.
        """
        if self.kind == "sigmoid":
            return self.rate * a * (1.0 - a)
        return self.activate_deriv(z)

    @property
    def differentiable(self) -> bool:
        return self.kind in DIFFERENTIABLE_KINDS


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
    """Pointwise pair f(U,V), g(U,V) driving a two-component system."""

    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]


def gray_scott(feed: float, kill: float) -> TwoComponentReaction:
    """Gray-Scott kinetics: f = -U V^2 + F(1-U), g = U V^2 - (F+kr) V."""
    F, kr = float(feed), float(kill)

    def f(U, V):
        return -U * V * V + F * (1.0 - U)

    def g(U, V):
        return U * V * V - (F + kr) * V

    return TwoComponentReaction(f"gray_scott(F={F},kr={kr})", f, g)
