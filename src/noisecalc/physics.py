"""Prebuilt model families whose boundary behavior separates the three
noise interpretations, plus the rest-start diagnostics that exhibit it.

Each factory returns the matched triple of models for the same physical
quantity.  The kinetic-energy families are one law indexed by the number
``delta`` of velocity components (1 for one particle, 2 for two): the
diffusion ``g(K) = sqrt(2 sigma^2 K / m)`` on (0, inf), and under the rule
offset ``lambda`` (0 Ito, 1/2 Stratonovich, 1 HK) the drift
``(delta - 2 lambda) sigma^2/(2m) - 2 gamma K / m``.  The relativistic energy lives on (M, inf) in natural units (c = 1) with
user-supplied friction and noise amplitudes as functions of the energy
(defaults: constant 1); its drifts are written as displayed, since they
agree under conversion only for a constant noise amplitude.

At the boundary the drift triples are the whole story: started from rest,
the Ito member is pushed inward (the boundary reflects instantaneously),
the Stratonovich member admits the frozen solution, and the
Hanggi-Klimontovich member either points out of the domain (single
particle, relativistic) or is absorbed (two particles).

Both studies run all three members from one :class:`McConfig`; a member's
boundary policy follows from its interpretation, not from the caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .paths import (HITTING, REST_START, SamplePath, SeedSpec, TimeGrid, _check_same_grid,
                    generate_brownian_vector)
from .sde import Interpretation, SdeModel, finite_diff_gprime
from .solvers import (
    Boundary,
    HittingStats,
    McConfig,
    Reflect,
    STOP_ON_VIOLATION,
    SolverScheme,
    _check_langevin,
    _run_engine,
    hitting_time,
    scheme_for,
)

__all__ = [
    "LangevinParams",
    "RelativisticParams",
    "InterpretationTriple",
    "MemberDiagnostics",
    "kinetic_models",
    "two_particle_models",
    "relativistic_models",
    "langevin_velocity_pair",
    "levy_composite_brownian",
    "rest_start_diagnostics",
    "FAMILIES",
]

FAMILIES = ("langevin1", "langevin2", "relativistic")


@dataclass(frozen=True)
class LangevinParams:
    """Mass, friction, and thermal noise amplitude of a Langevin particle.

    ``u0`` is the second particle's initial velocity: the two-particle
    family needs it, and the one-particle family rejects it.
    """

    m: float = 1.0
    gamma: float = 1.0
    sigma: float = 1.0
    v0: float = 1.0
    u0: float | None = None

    def __post_init__(self) -> None:
        _check_langevin(self.m, self.gamma, self.sigma)


@dataclass(frozen=True)
class RelativisticParams:
    """Rest mass plus energy-dependent friction and noise amplitudes.

    ``alpha_hat`` and ``d_hat`` are functions of the energy, positive on
    [M, inf); ``d_hat_prime`` is the optional analytic derivative of a
    given ``d_hat`` (finite differences otherwise).  Natural units, c = 1.
    """

    M: float = 1.0
    alpha_hat: Callable[[np.ndarray], np.ndarray] | None = None
    d_hat: Callable[[np.ndarray], np.ndarray] | None = None
    d_hat_prime: Callable[[np.ndarray], np.ndarray] | None = None
    p0: float = 0.0

    def __post_init__(self) -> None:
        if not self.M > 0:
            raise ValueError("rest mass must be positive")
        if self.alpha_hat is None:
            object.__setattr__(self, "alpha_hat", lambda e: np.ones_like(np.asarray(e, dtype=float)))
        if self.d_hat is None:
            if self.d_hat_prime is not None:
                raise ValueError("d_hat_prime needs the d_hat it is the derivative of")
            object.__setattr__(self, "d_hat", lambda e: np.ones_like(np.asarray(e, dtype=float)))
            object.__setattr__(self, "d_hat_prime", lambda e: np.zeros_like(np.asarray(e, dtype=float)))

    @property
    def e0(self) -> float:
        """Initial energy ``sqrt(M^2 + p0^2)``."""
        return math.hypot(self.M, self.p0)

    def d_prime(self, e):
        """``d_hat'``: the analytic one, else finite differences on (M, inf)."""
        if self.d_hat_prime is not None:
            return self.d_hat_prime(e)
        return finite_diff_gprime(lambda x, t: self.d_hat(x), e, 0.0,
                                  domain=(self.M, math.inf))


@dataclass(frozen=True)
class InterpretationTriple:
    """The same dynamics written under the three interpretations."""

    ito: SdeModel
    stratonovich: SdeModel
    hk: SdeModel

    def members(self) -> list[SdeModel]:
        return [self.ito, self.stratonovich, self.hk]


def _kinetic_family(params: LangevinParams, delta: int, x0: float) -> InterpretationTriple:
    """The kinetic family of the module docstring: each member's drift
    constant is read from the rule offset of its tag.  The square-root
    diffusion is not Lipschitz at the origin."""
    m, gamma, sigma = params.m, params.gamma, params.sigma
    c = 2.0 * sigma**2 / m
    relax = 2.0 * gamma / m

    def g(x, t):
        return np.sqrt(c * x)

    def dgdx(x, t):
        # g g' = sigma^2/m identically; g' alone diverges at the origin
        return 0.5 * c / np.sqrt(c * x)

    def member(tag):
        # a vanishing constant is -0.0, so that `inject - relax K` is
        # `-relax K` bit for bit, down to the sign of the zero at K = 0
        inject = (delta - 2 * tag.ito_drift_offset) * sigma**2 / (2.0 * m) or -0.0
        return SdeModel(f=lambda x, t: inject - relax * x, g=g, dgdx=dgdx,
                        interpretation=tag, x0=x0, domain=(0.0, math.inf))

    return InterpretationTriple(*map(member, Interpretation))


def kinetic_models(params: LangevinParams) -> InterpretationTriple:
    """Kinetic energy of one Langevin particle, ``K = m v^2 / 2``: the
    kinetic family at delta = 1.  A second velocity ``u0`` is rejected."""
    if params.u0 is not None:
        raise ValueError("one-particle family takes no u0")
    return _kinetic_family(params, 1, 0.5 * params.m * params.v0**2)


def two_particle_models(params: LangevinParams) -> InterpretationTriple:
    """Total kinetic energy of two independent Langevin particles: the
    kinetic family at delta = 2.  The HK drift and the diffusion both
    vanish at zero: an absorbing state."""
    if params.u0 is None:
        raise ValueError("two-particle family needs u0")
    return _kinetic_family(params, 2, 0.5 * params.m * (params.u0**2 + params.v0**2))


def relativistic_models(params: RelativisticParams) -> InterpretationTriple:
    """Relativistic energy of a randomly dispersed particle on (M, inf).

    The three drift displays are implemented as given (they agree under
    conversion when the noise amplitude is constant); the shared diffusion
    is ``sqrt(2 D(E) (1 - (M/E)^2))``, vanishing at the rest energy, where
    it is not Lipschitz.
    """
    M = params.M
    alpha, d_hat = params.alpha_hat, params.d_hat

    def bracket(e):
        e = np.asarray(e, dtype=float)
        return 1.0 - (M / e) ** 2

    def g(x, t):
        return np.sqrt(2.0 * np.asarray(d_hat(x), dtype=float) * bracket(x))

    def dgdx(x, t):
        # (g^2)' / (2 g); diverges at the rest energy where g vanishes, so
        # conversions are meaningful on the open domain only
        x = np.asarray(x, dtype=float)
        dsq = (np.asarray(params.d_prime(x), dtype=float) * bracket(x)
               + 2.0 * np.asarray(d_hat(x), dtype=float) * M**2 / x**3)
        return dsq / g(x, t)

    def f_ito(x, t):
        x = np.asarray(x, dtype=float)
        return (-np.asarray(alpha(x), dtype=float) * x * bracket(x)
                + np.asarray(d_hat(x), dtype=float) / x * (M / x) ** 2)

    def f_strat(x, t):
        x = np.asarray(x, dtype=float)
        return (0.5 * np.asarray(params.d_prime(x), dtype=float)
                - np.asarray(alpha(x), dtype=float) * x) * bracket(x)

    def f_hk(x, t):
        x = np.asarray(x, dtype=float)
        return ((np.asarray(params.d_prime(x), dtype=float)
                 - np.asarray(alpha(x), dtype=float) * x) * bracket(x)
                - np.asarray(d_hat(x), dtype=float) / x * (M / x) ** 2)

    return InterpretationTriple(*(
        SdeModel(f=f, g=g, dgdx=dgdx, interpretation=tag, x0=params.e0, domain=(M, math.inf))
        for f, tag in zip((f_ito, f_strat, f_hk), Interpretation)))


def family_models(name: str, params=None) -> InterpretationTriple:
    """Factory lookup by family name."""
    if name == "langevin1":
        return kinetic_models(params or LangevinParams())
    if name == "langevin2":
        p = params or LangevinParams(u0=1.0)
        return two_particle_models(p)
    if name == "relativistic":
        return relativistic_models(params or RelativisticParams())
    raise ValueError(f"unknown model family {name!r}; expected one of {FAMILIES}")


def langevin_velocity_pair(
    params: LangevinParams, grid: TimeGrid, seed: SeedSpec,
) -> tuple[SamplePath, SamplePath, SamplePath, SamplePath]:
    """Euler velocities (U, V) of the two-particle system plus the driving
    Brownian pair (B, W), all on one grid.

    The velocities are stepped with the same increments that ``B`` and
    ``W`` carry, which is what the composite-noise construction needs.
    """
    if params.u0 is None:
        raise ValueError("two-particle system needs u0")
    drivers = generate_brownian_vector(grid, 2, seed)
    k = params.gamma / params.m
    s = params.sigma / params.m
    # the left-rule Euler step of the shared stepper, in Python floats: on
    # two components numpy's per-call cost exceeds the arithmetic
    u, v = float(params.u0), float(params.v0)
    us, vs = [u], [v]
    db, dw = drivers.increments().T.tolist()
    for dt, b, w in zip(grid.spacings.tolist(), db, dw):
        u = u + -k * u * dt + s * b
        v = v + -k * v * dt + s * w
        us.append(u)
        vs.append(v)
    return (SamplePath(grid, np.array(us)), SamplePath(grid, np.array(vs)),
            drivers.component(0), drivers.component(1))


def levy_composite_brownian(
    u: SamplePath, v: SamplePath, b: SamplePath, w: SamplePath,
) -> SamplePath:
    """Composite process ``int U/r dB + int V/r dW`` with ``r = |(U, V)|``.

    Left-rule cumulative sums; at ``(U, V) = (0, 0)`` the integrand is set
    to ``(1, 0)`` (a null set of the law, documented rather than
    randomized).  The result is a Brownian motion in law, which realized
    quadratic variation near ``t`` verifies.
    """
    _check_same_grid(u, v)
    _check_same_grid(u, b)
    _check_same_grid(u, w)
    r = np.hypot(u.values[:-1], v.values[:-1])
    safe = r > 0
    cu = np.divide(u.values[:-1], r, out=np.ones_like(r), where=safe)
    cv = np.divide(v.values[:-1], r, out=np.zeros_like(r), where=safe)
    increments = cu * b.increments() + cv * w.increments()
    out = np.concatenate([[0.0], np.cumsum(increments)])
    return SamplePath(u.grid, out)


@dataclass(frozen=True)
class MemberDiagnostics:
    scheme: SolverScheme
    first_step_drift: float
    violation_fraction: float
    interior_fraction: float
    stuck_fraction: float


def _member_boundary(model: SdeModel) -> Boundary:
    """Boundary policy of one member in both studies: Ito and Stratonovich
    members reflect at the domain edge; the HK member stops on violation,
    so an escape is observed rather than masked."""
    if model.interpretation is Interpretation.HAENGGI_KLIMONTOVICH:
        return STOP_ON_VIOLATION
    return Reflect(*model.domain)


def rest_start_diagnostics(trio: InterpretationTriple,
                           cfg: McConfig) -> tuple[MemberDiagnostics, ...]:
    """Boundary-start comparison across the three interpretations.

    Each member runs its own direct scheme.  The Ito and Stratonovich
    members run with reflection at the boundary (their boundary is
    instantaneously reflecting, so folding is the physical handling); the
    HK member runs with stop-on-violation so that an entrance-boundary
    escape is observed rather than masked.  Reported per member: the
    deterministic first-step drift contribution, the fraction of paths
    with a domain violation, the fraction strictly inside the open domain
    at the horizon, and the fraction that never left the starting point,
    one entry per member in ``trio.members()`` order (Ito, Stratonovich,
    HK).  Member ``k`` runs ``cfg.n_paths`` paths seeded
    ``cfg.seed.child(REST_START, k)`` (the key words are in
    :mod:`noisecalc.paths`), so no two members or studies share noise.
    """
    members = []
    for k, model in enumerate(trio.members()):
        scheme = scheme_for(model.interpretation)
        lo, hi = model.domain
        raw = _run_engine(model, scheme, cfg.times(), cfg.n_paths,
                          cfg.seed.child(REST_START, k), _member_boundary(model))
        interior = raw.completed & (raw.terminal > lo) & (raw.terminal < hi)
        stuck = raw.completed & ~raw.moved
        members.append(MemberDiagnostics(
            scheme=scheme,
            first_step_drift=float(model.f(model.x0, 0.0)) * cfg.dt,
            violation_fraction=float((raw.violations > 0).mean()),
            interior_fraction=float(interior.mean()),
            stuck_fraction=float(stuck.mean()),
        ))
    return tuple(members)


def boundary_hitting_study(
    trio: InterpretationTriple,
    level: float,
    band: float,
    cfg: McConfig,
) -> tuple[HittingStats, ...]:
    """Hitting statistics of the boundary band for each member, in
    ``trio.members()`` order.

    Ito and Stratonovich members reflect at the domain edge; the HK member
    stops on violation (a violating value through the band counts as a
    hit).  Member ``k`` runs seeded ``cfg.seed.child(HITTING, k)``.
    """
    return tuple(
        hitting_time(model, scheme_for(model.interpretation), level, band,
                     replace(cfg, seed=cfg.seed.child(HITTING, k)), _member_boundary(model))
        for k, model in enumerate(trio.members()))
