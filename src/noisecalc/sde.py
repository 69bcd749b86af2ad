"""Scalar SDE models under the three noise interpretations.

Each interpretation is one :class:`EvaluationRule` (left, midpoint, right).
Conversions are coefficient-level: mapping an interpretation to Ito form
adds the rule's offset times ``g * dg/dx`` to the drift (0 for Ito, 1/2 for
Stratonovich, 1 for Hanggi-Klimontovich) and leaves the diffusion untouched.
Without an analytic ``dg/dx`` that product is ``(g^2)'/2``, differenced.
Solving always routes through the Ito form or a direct evaluation-rule
scheme; see :mod:`noisecalc.solvers`.

Without an analytic ``dg/dx``, :func:`finite_diff_gprime` is the one
finite-difference rule of the package: step ``h = max(1e-6, 1e-6 |x|)`` per
point, a central stencil wherever ``x +- h`` stays in the closed domain and
a one-sided one where it would leave it.  Models, the forward equation and
the relativistic family all use it.

Lipschitz / linear-growth hypotheses are not runtime-verified: the kinetic
case studies deliberately violate them at the boundary, and the factories of
:mod:`noisecalc.physics` say where in their docstrings.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "EvaluationRule",
    "Interpretation",
    "SdeModel",
    "finite_diff_gprime",
    "to_ito",
    "from_ito",
]

CoefficientFn = Callable[[np.ndarray, float], np.ndarray]


class EvaluationRule(enum.Enum):
    """Where the integrand is read on each subinterval."""

    LEFT = "left"          # Ito
    MIDPOINT = "midpoint"  # Stratonovich
    RIGHT = "right"        # Hanggi-Klimontovich

    @property
    def ito_offset(self) -> float:
        """Position of the evaluation point in the step: 0, 1/2 or 1."""
        return {
            EvaluationRule.LEFT: 0.0,
            EvaluationRule.MIDPOINT: 0.5,
            EvaluationRule.RIGHT: 1.0,
        }[self]

    @classmethod
    def from_name(cls, name: str) -> "EvaluationRule":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown evaluation rule {name!r}; "
                             f"expected one of {[r.value for r in cls]}") from None


class Interpretation(enum.Enum):
    ITO = "ito"
    STRATONOVICH = "stratonovich"
    HAENGGI_KLIMONTOVICH = "hk"

    @property
    def rule(self) -> EvaluationRule:
        """The evaluation rule that defines this interpretation."""
        return _RULE_OF[self]

    @property
    def ito_drift_offset(self) -> float:
        """Multiple of ``g * dg/dx`` added to the drift to reach Ito form."""
        return self.rule.ito_offset

    @classmethod
    def from_name(cls, name: str) -> "Interpretation":
        aliases = {
            "ito": cls.ITO,
            "stratonovich": cls.STRATONOVICH,
            "strat": cls.STRATONOVICH,
            "hk": cls.HAENGGI_KLIMONTOVICH,
            "hanggi-klimontovich": cls.HAENGGI_KLIMONTOVICH,
            "haenggi_klimontovich": cls.HAENGGI_KLIMONTOVICH,
        }
        try:
            return aliases[name.lower()]
        except KeyError:
            raise ValueError(f"unknown interpretation {name!r}") from None


_RULE_OF = {
    Interpretation.ITO: EvaluationRule.LEFT,
    Interpretation.STRATONOVICH: EvaluationRule.MIDPOINT,
    Interpretation.HAENGGI_KLIMONTOVICH: EvaluationRule.RIGHT,
}


@np.errstate(all="ignore")
def finite_diff_gprime(
    g: CoefficientFn,
    x: float | np.ndarray,
    t: float,
    domain: tuple[float, float] = (-math.inf, math.inf),
) -> float | np.ndarray:
    """Central difference of ``g`` in ``x``; one-sided near a domain edge.

    The rule of the module docstring, with ``g`` evaluated twice on all
    points: floats for a scalar ``x``, arrays for an array.  A point outside
    the domain, or one where neither side fits, raises; a NaN point (a
    diverged state) gives NaN.  The arithmetic runs without numpy warnings.
    """
    xs = np.asarray(x, dtype=float)
    h = np.maximum(1e-6, 1e-6 * np.abs(xs))
    lo, hi = domain
    outside = (xs < lo) | (xs > hi)
    if outside.any():
        raise ValueError(f"x={xs[outside].flat[0]} outside domain [{lo}, {hi}]")
    left_ok = xs - h >= lo
    right_ok = xs + h <= hi
    stuck = ~(left_ok | right_ok | np.isnan(xs))
    if stuck.any():
        raise ValueError(f"domain [{lo}, {hi}] too narrow for the stencil at x={xs[stuck].flat[0]}")
    value = ((np.asarray(g(np.where(right_ok, xs + h, xs), t), dtype=float)
              - np.asarray(g(np.where(left_ok, xs - h, xs), t), dtype=float))
             / np.where(left_ok & right_ok, 2 * h, h))
    return float(value) if xs.ndim == 0 else value


@dataclass(frozen=True)
class SdeModel:
    """Drift, diffusion, interpretation tag, and state domain.

    ``f`` and ``g`` are functions of ``(x, t)`` and should accept numpy
    arrays in ``x`` (the solvers evaluate them vectorized).  ``dgdx`` is the
    optional analytic spatial derivative of ``g``; when absent, conversions
    difference ``g^2`` with :func:`finite_diff_gprime` on the model's
    domain.  The domain is an open interval; ``x0`` may sit on its closure
    so rest-start experiments are representable.
    """

    f: CoefficientFn
    g: CoefficientFn
    interpretation: Interpretation
    x0: float
    domain: tuple[float, float] = (-math.inf, math.inf)
    dgdx: CoefficientFn | None = None

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        if not (lo <= self.x0 <= hi):
            raise ValueError(f"x0={self.x0} outside the closed domain [{lo}, {hi}]")

    def gprime(self, x, t):
        """Spatial derivative of the diffusion coefficient at ``(x, t)``."""
        if self.dgdx is not None:
            return self.dgdx(x, t)
        return finite_diff_gprime(self.g, x, t, domain=self.domain)


def _with_offset(model: SdeModel, offset: float) -> CoefficientFn:
    """The drift plus ``offset * g g'``: ``dgdx * g``, or without ``dgdx``
    ``(g^2)'/2`` differenced, exact where ``g^2`` is linear and ``g'`` not."""
    f, g, dgdx = model.f, model.g, model.dgdx
    if dgdx is not None:
        def drift(x, t):
            return f(x, t) + offset * dgdx(x, t) * g(x, t)
        return drift

    def g_squared(x, t):
        gx = g(x, t)
        return gx * gx

    def fd_drift(x, t):
        return f(x, t) + offset * 0.5 * finite_diff_gprime(g_squared, x, t, model.domain)
    return fd_drift


def to_ito(model: SdeModel) -> SdeModel:
    """Equivalent Ito-form model: drift picks up the interpretation offset.

    Requires ``g`` continuously differentiable on the domain.  An
    Ito-tagged model is returned unchanged (same object), so solving the
    converted model is bit-identical to solving the original.
    """
    offset = model.interpretation.ito_drift_offset
    if offset == 0.0:
        return model
    return replace(
        model,
        f=_with_offset(model, offset),
        interpretation=Interpretation.ITO,
    )


def from_ito(model: SdeModel, target: Interpretation) -> SdeModel:
    """Inverse of :func:`to_ito`: rewrite an Ito model in ``target`` form.

    The round trip ``to_ito(from_ito(m, target))`` reproduces the drift
    pointwise (up to roundoff in the add/subtract pair).
    """
    if model.interpretation is not Interpretation.ITO:
        raise ValueError(
            f"from_ito expects an Ito-tagged model, got {model.interpretation}"
        )
    if target is Interpretation.ITO:
        return model
    return replace(
        model,
        f=_with_offset(model, -target.ito_drift_offset),
        interpretation=target,
    )
