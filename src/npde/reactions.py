"""Pointwise reaction terms C(u) and two-component reaction pairs.

The reaction term doubles as the activation nonlinearity of generated blocks:
fisher is the logistic growth r*u*(1-u), sigmoid is the logistic function
1/(1+exp(-r*u)), linear is r*u. One table gives these rate kinds, and none,
C's linear part l (the rate, or 0) and the rest R = C - l u (q = R/u where l
folds): C and dC/du are built from them (fisher's C rounds as r*u - r*u**2),
and an explicit 1D step folds l, and in a uniform medium q, into its centre
tap. source adds a fixed forcing field, a read-only copy. A two-component pair
is pointwise over the solver's padded planes: it fills a (2, n+2, n+2) buffer
through its fused evaluator (gray_scott computes U V^2 once), or else by
copying f(U, V) and g(U, V), bit for bit alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

# numpy takes a 0-d operand faster than a Python float, with the same bits
_ZERO, _ONE = np.zeros(()), np.ones(())


def sigmoid(x):
    """Logistic function as exp(min(x, 0)) / (1 + exp(-|x|)): each sign's own branch,
    1 / (1 + exp(-x)) or exp(x) / (1 + exp(x)), operation for operation, so its bits
    (a NaN keeps its sign); no exp overflows. A 0-d input gives an np.float64."""
    x = np.asarray(x, dtype=float)
    return np.exp(np.minimum(x, _ZERO)) / (_ONE + np.exp(np.copysign(x, -1.0)))  # -|x|


def _sigmoid_slope(rate, s):
    """d/du sigmoid(rate * u) = rate * s * (1 - s), read off s = sigmoid(rate * u)."""
    return rate * s * (_ONE - s)


# kind -> (folds, q or R, dR/du), functions of (rate, u), None for 0: C = l u + R,
# l = rate and R = q u if the kind folds, else l = 0; "source" is a fixed field;
# fisher's q writes into out when given, with the bits of -r * u
_RATE_KINDS = {
    "none": (False, None, None),
    "fisher": (True, lambda r, u, out=None: np.multiply(-r, u, out=out),
               lambda r, u: -2.0 * r * u),
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
        if self.kind == "source":    # leading axes of u ride along, each gets the source
            if u.shape[u.ndim - self.source.ndim:] != self.source.shape:
                raise ValueError("source field shape does not match the field")
            return np.broadcast_to(self.source, u.shape).copy()
        folds, f, _ = _RATE_KINDS[self.kind]
        if f is None:
            return self.rate * u if folds else np.zeros_like(u)
        return self.rate * u + f(self.rate, u) * u if folds else f(self.rate, u)

    def deriv(self, u):
        """d/du of the reaction, l + dR/du, used by reverse-mode gradients."""
        u = np.asarray(u, dtype=float)
        folds, _, slope = _RATE_KINDS.get(self.kind, (False, None, None))
        if slope is None:
            return np.full_like(u, self.rate if folds else 0.0)
        return self.rate + slope(self.rate, u) if folds else slope(self.rate, u)

    def split(self, k: float):
        """(k l, k R, k dR/du, k q) for C(u) = l u + R(u): l is C's part linear in
        u, which an explicit 1D step of time step k folds into its centre tap; the
        rest are functions of u, None where they vanish (k q where l does not fold).
        A kind that folds is its rate times a function of u: R = q u at rate k r."""
        if self.kind == "source":
            return 0.0, lambda u: k * self(u), None, None
        folds, f, slope = _RATE_KINDS[self.kind]
        if folds:
            kr = k * self.rate
            q = f and partial(f, kr)
            return kr, q and (lambda u: q(u) * u), slope and partial(slope, kr), q
        return 0.0, *(g and (lambda u, g=g: k * g(self.rate, u)) for g in (f, slope)), None

    def activate(self, z):
        """Composed-activation semantics: ``none`` is the identity map.

        Additive reaction semantics (__call__) treat ``none`` as zero; a dense
        layer composing y = act(W x + b) needs identity instead.
        """
        return self._activation()[0](np.asarray(z, dtype=float))

    def activate_deriv(self, z):
        """d activate / dz, for reverse-mode passes through dense layers."""
        act, slope, of_output = self._activation()
        z = np.asarray(z, dtype=float)
        return slope(act(z) if of_output else z)

    def _activation(self):
        """(act, slope, of_output) for a dense layer: act(z) is activate(z), and slope
        gives a fresh activate_deriv(z), read off act(z) if of_output, else off z.
        The one refusal of a source, an additive field, as a composed activation."""
        if self.kind == "source":
            raise ValueError("'source' cannot be composed: "
                             "a source term is not a composed activation")
        if self.kind == "none":
            return np.ndarray.copy, np.ones_like, False
        if self.kind == "sigmoid":
            rate = np.array(self.rate)      # a 0-d operand, as _ONE
            return partial(_RATE_KINDS["sigmoid"][1], rate), partial(_sigmoid_slope, rate), True
        return self, self.deriv, False


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

    The solver evaluates them on whole padded planes, ghost cells included,
    and discards what they return there, so each must be pointwise: its value
    at a cell reads only that cell, and it returns its input's shape.
    ``fused(U, V, out, scratch)``, if given, writes f's and g's bits into out[0]
    and out[1] in one pass, using the plane ``scratch``, and never writes U or V.
    """

    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fused: Callable[..., None] | None = field(default=None, compare=False)

    def _fill(self, U, V, out, scratch) -> None:
        """Write f(U, V) into out[0] and g(U, V) into out[1]: fused, else copied.
        A copied value not of U's shape is refused by the reaction's name."""
        if self.fused is not None:
            self.fused(U, V, out, scratch)
            return
        for c, (name, rate) in enumerate((("f", self.f), ("g", self.g))):
            value = rate(U, V)
            if np.shape(value) != U.shape:
                raise ValueError(f"reaction {self.name!r} is not pointwise: {name} returned "
                                 f"shape {np.shape(value)} for inputs of shape {U.shape}")
            out[c] = value


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
