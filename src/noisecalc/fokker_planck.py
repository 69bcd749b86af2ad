"""Forward-equation machinery on a finite interval with reflecting borders.

Densities are cell-averaged on a uniform grid (values are taken at cell
centers, the usual finite-volume conflation).  The stationary density of a
time-homogeneous model with zero-flux boundaries is ``exp(V(x))`` up to
normalization, with the nonequilibrium potential ``V(x) = 2 int_a^x f/g^2``
accumulated by cumulative trapezoid from the left edge (``V(a) = 0``).

Time evolution has two independent routes.

* :func:`propagate_fpe` (the CLI's route) takes no time step.  It assembles
  the square-root approximation (SQRA) jump generator between neighbouring
  cells, ``k(i -> i+-1) = D(i+-1/2)/dx^2 exp((V(i+-1) - V(i))/2)`` with
  ``D = g^2/2`` at the faces, which keeps detailed balance with
  ``exp(V)``: its null vector is the stationary density.  One propagator
  ``exp(L tau)`` for the snapshot interval ``tau`` comes from
  uniformization (``L + cI`` is nonnegative) and scaling and squaring, so
  every term and product is nonnegative and densities are nonnegative by
  construction.  Sources: Lie, Fackeldey & Weber, SIAM J. Matrix Anal.
  Appl. 34 (2013); Chang & Cooper, J. Comput. Phys. 6 (1970).
* :func:`evolve_fpe` is the tests' cross-check, and no command runs it: a
  plain explicit-Euler march of the conservative finite-volume update
  whose probability flux ``J = (f + g g') p - d(g^2 p / 2)/dx`` is
  assembled at cell interfaces with minmod-limited upwind advection and
  centered diffusion, with both boundary-face fluxes held at zero, so
  mass conservation and the zero-flux condition are structural rather
  than approximate.  ``dt`` is at most the bound
  ``min(0.4 dx^2 / max g^2, 0.5 dx / max|f + g g'|)``.

Both routes and :func:`stationary_density` reject a ``g`` that is not above
1e-12 (NaN is not) on the interval.  ``g'`` comes from
:func:`~noisecalc.sde.finite_diff_gprime`, in one place.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sde import finite_diff_gprime

__all__ = [
    "GridDensity",
    "FpeProblem",
    "FpeResult",
    "Stability",
    "ExtremumKind",
    "FixedPoint",
    "DensityExtremum",
    "FixedPointReport",
    "stationary_density",
    "stationary_log_density",
    "nonequilibrium_potential",
    "evolve_fpe",
    "propagate_fpe",
    "probability_flux",
    "relative_entropy",
    "analyze_fixed_points",
    "compare_modes",
]

_NEG_TOL = -1e-12
# Most snapshot intervals a propagated run takes: each snapshot is a density
# held in memory.
_MAX_SNAPSHOTS = 100_000
# Most cells a propagated run takes: its generator and propagator are dense
# n_cells x n_cells matrices, 128 MiB each at this size.  The snapshots it
# holds, n_cells values each, may take no more than one such matrix.
_MAX_CELLS = 4096
# The Taylor series of the scaled propagator stops once the 1-norm bound of
# the next term, (c h)^k / k!, falls below this.
_TAYLOR_TOL = 1e-18


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Cell-averaged probability density on [a, b], mass normalized to 1."""

    a: float
    b: float
    values: np.ndarray
    clipped: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")
        vals = np.array(self.values, dtype=float)  # a copy: the caller's array stays writeable
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need at least 2 cells")
        if not np.isfinite(vals).all():
            raise ValueError("density values must be finite")
        clipped = False
        if vals.min() < 0:
            if vals.min() < _NEG_TOL:
                raise ValueError(f"negative cell average {vals.min()} beyond tolerance")
            vals = np.clip(vals, 0.0, None)
            clipped = True
        mass = vals.sum() * (self.b - self.a) / vals.size
        if mass <= 0:
            raise ValueError("density has no mass")
        if abs(mass - 1.0) > 1e-9:
            vals = vals / mass
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "clipped", clipped)

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.dx)

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray],
                      a: float, b: float, n_cells: int) -> "GridDensity":
        dx = (b - a) / n_cells
        centers = a + (np.arange(n_cells) + 0.5) * dx
        return cls(a, b, np.asarray(fn(centers), dtype=float))

    @classmethod
    def point_mass(cls, a: float, b: float, n_cells: int, x0: float) -> "GridDensity":
        """Single-cell realization of a point mass at ``x0``."""
        if not a <= x0 <= b:
            raise ValueError(f"x0={x0} outside [{a}, {b}]")
        dx = (b - a) / n_cells
        idx = min(int((x0 - a) / dx), n_cells - 1)
        vals = np.zeros(n_cells)
        vals[idx] = 1.0 / dx
        return cls(a, b, vals)

    @classmethod
    def uniform(cls, a: float, b: float, n_cells: int) -> "GridDensity":
        return cls(a, b, np.full(n_cells, 1.0 / (b - a)))

    def l1_distance(self, other: "GridDensity") -> float:
        self._check_same_grid(other)
        return float(np.sum(np.abs(self.values - other.values)) * self.dx)

    def _check_same_grid(self, other: "GridDensity") -> None:
        if (self.a, self.b, self.n_cells) != (other.a, other.b, other.n_cells):
            raise ValueError("densities live on different grids")


def _check_g_floor(g, a, b, n_cells):
    """Reject ``g`` unless it is above 1e-12 (NaN is not) at ``max(512,
    2 n_cells)`` evenly spaced points of [a, b]."""
    xs = np.linspace(a, b, max(512, 2 * n_cells))
    gv = np.asarray(g(xs, 0.0), dtype=float)
    worst = int(np.argmin(gv))  # the first NaN, if there is one
    if not gv[worst] > 1e-12:
        raise ValueError(f"diffusion coefficient g not bounded away from 0 on [{a}, {b}]: "
                         f"g({float(xs[worst])}) = {float(gv[worst])}")


def _velocity(f, g, xs, domain):
    """``f + g g'`` at ``xs``, with ``g'`` by finite differences on ``domain``."""
    gp = finite_diff_gprime(g, xs, 0.0, domain=domain)
    return np.asarray(f(xs, 0.0), dtype=float) + np.asarray(g(xs, 0.0), dtype=float) * gp


def nonequilibrium_potential(
    f: Callable, g: Callable, a: float, xs: np.ndarray,
) -> np.ndarray:
    """Cumulative trapezoid of ``2 f / g^2`` from ``a`` to each of ``xs``.

    ``xs`` must be increasing and start at or after ``a``; the integration
    nodes are ``a`` followed by ``xs``.
    """
    nodes = np.concatenate([[a], xs])
    u = 2.0 * np.asarray(f(nodes, 0.0), dtype=float) / np.asarray(g(nodes, 0.0), dtype=float) ** 2
    widths = np.diff(nodes)
    return np.cumsum(0.5 * (u[:-1] + u[1:]) * widths)


def stationary_density(
    f: Callable, g: Callable, interval: tuple[float, float], n_cells: int,
) -> GridDensity:
    """Zero-flux stationary density ``exp(V)`` normalized on the interval.

    The potential is shifted by its maximum before exponentiation for
    overflow safety; where it lies more than ~745 below its maximum, the
    density underflows to 0 (see :func:`stationary_log_density`).  ``g``
    must be bounded away from zero on the interval: a value at or below
    1e-12, or NaN, at one of ``max(512, 2 n_cells)`` sampled points is
    rejected with its location.
    """
    dx, v = _cell_potential(f, g, interval, n_cells)
    p = np.exp(v - v.max())
    return GridDensity(*interval, p / (p.sum() * dx))


def stationary_log_density(
    f: Callable, g: Callable, interval: tuple[float, float], n_cells: int,
) -> np.ndarray:
    """The log of :func:`stationary_density`'s cell values,
    ``V - logsumexp(V) - log dx``, finite also in the tails of a stiff
    potential, where the density itself underflows to 0.  Same checks."""
    dx, v = _cell_potential(f, g, interval, n_cells)
    top = v.max()
    return v - (top + math.log(np.exp(v - top).sum())) - math.log(dx)


def _cell_potential(f, g, interval, n_cells):
    """``(dx, V at the cell centers)``, after checking the grid and ``g``."""
    a, b = interval
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    _check_g_floor(g, a, b, n_cells)
    dx = (b - a) / n_cells
    centers = a + (np.arange(n_cells) + 0.5) * dx
    return dx, nonequilibrium_potential(f, g, a, centers)


@dataclass(frozen=True)
class FpeProblem:
    """Time-homogeneous forward problem with reflecting borders on the
    interval [a, b] of its initial density.

    ``g'`` comes from :func:`~noisecalc.sde.finite_diff_gprime`.  Construction
    checks, by sampling as :func:`stationary_density` does, that ``g`` stays
    above 1e-12.
    """

    f: Callable
    g: Callable
    initial: GridDensity

    def __post_init__(self) -> None:
        _check_g_floor(self.g, *self.interval, self.initial.n_cells)

    @property
    def interval(self) -> tuple[float, float]:
        return self.initial.a, self.initial.b

    def stability_bound(self) -> float:
        """Recorded explicit-Euler bound: the smaller of the diffusive limit
        ``0.4 dx^2 / max(g^2)`` and the advective limit
        ``0.5 dx / max|f + g g'|``, both sampled on 512 points."""
        xs = np.linspace(*self.interval, 512)
        dx = self.initial.dx
        gmax = float(np.max(np.asarray(self.g(xs, 0.0), dtype=float) ** 2))
        vmax = float(np.max(np.abs(self.velocity(xs))))
        advective = 0.5 * dx / vmax if vmax > 0 else math.inf
        return min(0.4 * dx**2 / gmax, advective)

    def velocity(self, xs: np.ndarray) -> np.ndarray:
        """Advection field ``f + g g'`` of the conservation form."""
        return _velocity(self.f, self.g, xs, self.interval)


@dataclass(frozen=True)
class FpeResult:
    times: tuple[float, ...]
    snapshots: tuple[GridDensity, ...]
    mass_drift: float

    @property
    def final(self) -> GridDensity:
        return self.snapshots[-1]


def evolve_fpe(
    problem: FpeProblem,
    dt: float,
    horizon: float,
    snapshot_every: float | None = None,
) -> FpeResult:
    """March the forward equation to ``horizon`` with explicit Euler steps.

    The march takes ``n = ceil(horizon / dt)`` equal steps of
    ``horizon / n``: no step is longer than ``dt``, and the last one ends
    at ``horizon`` exactly.

    Rejects ``dt`` above the recorded stability bound (the admissible value
    is part of the message), and a ``snapshot_every`` that is neither
    ``None`` (no snapshots) nor positive.  Mass is conserved to rounding
    because the update telescopes interface fluxes with both boundary faces
    at zero.

    The minmod limiter is ``median(0, a, b)`` with the zero as the second
    operand of ``min``/``max``, the operand numpy returns on ties, so a zero
    slope is ``+0.0``.  ``tests/test_fokker_planck.py`` keeps a reference
    copy of the step loop and checks that both agree bit for bit.
    """
    bound = problem.stability_bound()
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > bound:
        raise ValueError(f"dt={dt} violates the stability bound; admissible dt <= {bound:.3e}")
    if horizon < dt:
        raise ValueError("horizon must cover at least one step")
    if snapshot_every is not None and not snapshot_every > 0:
        raise ValueError(f"snapshot_every must be positive or None, got {snapshot_every}")

    a, b = problem.interval
    n = problem.initial.n_cells
    dx = problem.initial.dx
    interfaces = a + np.arange(1, n) * dx
    diff_c = 0.5 * np.asarray(problem.g(problem.initial.centers, 0.0), dtype=float) ** 2
    w_i = problem.velocity(interfaces)
    w_plus = w_i > 0

    p = problem.initial.values
    n_steps = math.ceil(horizon / dt)
    if horizon / n_steps > dt:  # horizon / dt was rounded down onto an integer
        n_steps += 1
    dt = horizon / n_steps
    snap_stride = None if snapshot_every is None else max(1, round(snapshot_every / dt))
    times = [0.0]
    snaps = [GridDensity(a, b, p)]
    mass0 = p.sum() * dx

    slopes = np.zeros(n)  # the two edge cells keep slope 0
    flux = np.zeros(n + 1)  # the two boundary faces keep flux 0
    for k in range(n_steps):
        jumps = p[1:] - p[:-1]
        left, right = jumps[:-1], jumps[1:]
        slopes[1:-1] = np.minimum(np.maximum(left, np.minimum(right, 0.0)),
                                  np.maximum(right, 0.0))
        half = 0.5 * slopes
        face = np.where(w_plus, p[:-1] + half[:-1], p[1:] - half[1:])
        q = diff_c * p
        flux[1:-1] = w_i * face - (q[1:] - q[:-1]) / dx
        p = p - (dt / dx) * (flux[1:] - flux[:-1])
        if snap_stride and (k + 1) % snap_stride == 0 and k + 1 < n_steps:
            times.append((k + 1) * dt)
            snaps.append(GridDensity(a, b, p))

    times.append(horizon)
    snaps.append(GridDensity(a, b, p))
    return FpeResult(tuple(times), tuple(snaps), float(abs(p.sum() * dx - mass0)))


def _sqra_generator(problem: FpeProblem) -> np.ndarray:
    """Dense SQRA generator ``L`` of ``dp/dt = L p`` on the problem's cells.

    ``L[j, i]`` is the rate ``k(i -> j)`` for the neighbours ``j = i +- 1``,
    ``D(face)/dx^2 exp((V(j) - V(i))/2)``, and the diagonal is minus the
    total rate out, so every column sums to zero.
    """
    a, b = problem.interval
    n = problem.initial.n_cells
    dx = problem.initial.dx
    faces = a + np.arange(1, n) * dx
    v = nonequilibrium_potential(problem.f, problem.g, a, problem.initial.centers)
    d_face = 0.5 * np.asarray(problem.g(faces, 0.0), dtype=float) ** 2 / dx**2
    half = 0.5 * np.diff(v)
    with np.errstate(over="ignore"):  # an overflow is reported below
        right = d_face * np.exp(half)    # k(i -> i+1)
        left = d_face * np.exp(-half)    # k(i+1 -> i)
    out = np.zeros(n)
    out[:-1] += right
    out[1:] += left
    if not np.all(np.isfinite(out)):
        raise ValueError("SQRA rates overflow: the potential changes by more than "
                         "~1400 between neighbouring cells; use more cells")
    gen = np.zeros((n, n))
    cells = np.arange(n - 1)
    gen[cells + 1, cells] = right
    gen[cells, cells + 1] = left
    gen[np.diag_indices(n)] = -out
    return gen


def _propagator(gen: np.ndarray, tau: float) -> np.ndarray:
    """``exp(gen tau)`` by uniformization and scaling and squaring.

    With ``c = max(-diag gen)``, ``A = (gen + cI) h`` is nonnegative and
    ``exp(gen h) = exp(-c h) exp(A)``; ``h = tau / 2^s`` keeps ``c h <= 1/2``,
    the Taylor series of ``exp(A)`` runs until its term bound
    ``(c h)^k / k!`` is negligible, and ``s`` squarings return to ``tau``.
    Every term and product is nonnegative.
    """
    c = float(-gen.diagonal().min())
    s = math.ceil(math.log2(2.0 * c * tau)) if c * tau > 0.5 else 0
    h = tau / 2**s
    ch = c * h
    scaled = gen.copy()
    scaled[np.diag_indices_from(scaled)] += c
    scaled *= h
    total = scaled.copy()
    total[np.diag_indices_from(total)] += 1.0
    term, bound, k = scaled, ch, 1
    while bound > _TAYLOR_TOL:
        k += 1
        term = term @ scaled
        term /= k
        total += term
        bound *= ch / k
    total *= math.exp(-ch)
    for _ in range(s):
        total = total @ total
    return total


def propagate_fpe(problem: FpeProblem, horizon: float,
                  snapshot_every: float) -> FpeResult:
    """Propagate the forward equation to ``horizon`` without a time step.

    The horizon is split into ``m = ceil(horizon / snapshot_every)`` equal
    intervals (one more when ``horizon / snapshot_every`` rounds down onto
    a whole number), so no interval is longer than ``snapshot_every`` and
    the last snapshot is at ``horizon`` exactly.  One propagator
    ``E = exp(L horizon / m)`` of the SQRA generator ``L`` is applied once
    per snapshot; ``E`` is a dense ``n_cells x n_cells`` matrix.

    Rejects a ``horizon`` that is not positive and finite, a
    ``snapshot_every`` that is not positive, more than 100,000 intervals,
    more than 4,096 cells, and more than ``4096^2`` snapshot values
    (``n_cells x (m + 1)``, 128 MiB).  Densities are nonnegative by construction
    and never clipped; ``mass_drift`` is the rounding drift of the final
    mass.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not snapshot_every > 0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    ratio = horizon / snapshot_every  # inf when snapshot_every underflows it
    m = max(1, math.ceil(ratio)) if ratio < math.inf else ratio
    if horizon / m > snapshot_every:  # horizon / snapshot_every was rounded down
        m += 1
    if m > _MAX_SNAPSHOTS:
        raise ValueError(f"snapshot_every={snapshot_every} asks for {m} snapshot "
                         f"intervals; at most {_MAX_SNAPSHOTS} are allowed")
    if problem.initial.n_cells > _MAX_CELLS:
        raise ValueError(f"{problem.initial.n_cells} cells: the propagator is a dense "
                         f"n_cells x n_cells matrix, so at most {_MAX_CELLS} are allowed")
    if problem.initial.n_cells * (m + 1) > _MAX_CELLS**2:
        raise ValueError(f"{problem.initial.n_cells} cells x {m + 1} snapshots: at most "
                         f"{_MAX_CELLS**2} snapshot values are allowed")

    a, b = problem.interval
    dx = problem.initial.dx
    tau = horizon / m
    step = _propagator(_sqra_generator(problem), tau)
    p = problem.initial.values.copy()
    mass0 = p.sum() * dx
    times = [0.0]
    snaps = [problem.initial]
    for k in range(1, m + 1):
        p = step @ p
        times.append(k * tau if k < m else horizon)
        snaps.append(GridDensity(a, b, p))
    return FpeResult(tuple(times), tuple(snaps), float(abs(p.sum() * dx - mass0)))


def probability_flux(p: GridDensity, f: Callable, g: Callable) -> np.ndarray:
    """Pointwise flux ``(f + g g') p - d(g^2 p)/dx / 2`` at cell centers.

    ``g'`` is by finite differences on [a, b]; the derivative of ``g^2 p``
    is a centered difference in the interior and a third-order one-sided
    stencil at the two edge cells.
    """
    xs = p.centers
    dx = p.dx
    q = np.asarray(g(xs, 0.0), dtype=float) ** 2 * p.values
    dq = np.empty_like(q)
    dq[1:-1] = (q[2:] - q[:-2]) / (2 * dx)
    dq[0] = (-11 * q[0] + 18 * q[1] - 9 * q[2] + 2 * q[3]) / (6 * dx)
    dq[-1] = (11 * q[-1] - 18 * q[-2] + 9 * q[-3] - 2 * q[-4]) / (6 * dx)
    return _velocity(f, g, xs, (p.a, p.b)) * p.values - 0.5 * dq


def relative_entropy(p: GridDensity, q: GridDensity | np.ndarray) -> float:
    """Kullback-Leibler divergence ``sum p log(p/q) dx`` with 0 log 0 = 0.

    ``q`` is a density on ``p``'s grid, or the log of one's cell values, as
    :func:`stationary_log_density` gives: the log stays finite where a
    density underflows to 0.  Returns ``inf`` when ``q`` vanishes on a cell
    where ``p`` does not.
    """
    pv = p.values
    mask = pv > 0
    if isinstance(q, GridDensity):
        p._check_same_grid(q)
        with np.errstate(divide="ignore"):
            log_q = np.log(q.values)
    else:
        log_q = np.asarray(q, dtype=float)
        if log_q.shape != pv.shape:
            raise ValueError(f"log density of shape {log_q.shape} on a grid of {p.n_cells} cells")
    if np.any(log_q[mask] == -math.inf):
        return math.inf
    return float(np.sum(pv[mask] * (np.log(pv[mask]) - log_q[mask])) * p.dx)


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    DEGENERATE = "degenerate"


class ExtremumKind(enum.Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class FixedPoint:
    x: float
    stability: Stability


@dataclass(frozen=True)
class DensityExtremum:
    x: float
    kind: ExtremumKind


@dataclass(frozen=True)
class FixedPointReport:
    fixed_points: tuple[FixedPoint, ...]
    extrema: tuple[DensityExtremum, ...] = ()
    matches: tuple[tuple[float, float, float], ...] = ()  # (x_fixed, x_mode, |gap|)

    def stable(self) -> list[float]:
        return [fp.x for fp in self.fixed_points if fp.stability is Stability.STABLE]


def analyze_fixed_points(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    interval: tuple[float, float],
) -> FixedPointReport:
    """Zeros of ``f`` on the interval, classified by the sign of ``f'``.

    Sign changes found on a 1024-point scan are bisected to 1e-10;
    ``|f'| < 1e-8`` at a root marks it degenerate (excluded from matching).
    """
    a, b = interval
    xs = np.linspace(a, b, 1024)
    fv = np.array([float(f(x)) for x in xs])
    roots: list[float] = []
    for i in range(xs.size - 1):
        if fv[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        if fv[i] * fv[i + 1] < 0:
            lo_x, hi_x = float(xs[i]), float(xs[i + 1])
            flo = fv[i]
            while hi_x - lo_x > 1e-10:
                mid = 0.5 * (lo_x + hi_x)
                fm = float(f(mid))
                if fm == 0.0:
                    lo_x = hi_x = mid
                    break
                if flo * fm < 0:
                    hi_x = mid
                else:
                    lo_x, flo = mid, fm
            roots.append(0.5 * (lo_x + hi_x))
    if fv[-1] == 0.0:
        roots.append(float(xs[-1]))

    points = []
    for r in roots:
        slope = float(fprime(r))
        if abs(slope) < 1e-8:
            stab = Stability.DEGENERATE
        elif slope < 0:
            stab = Stability.STABLE
        else:
            stab = Stability.UNSTABLE
        points.append(FixedPoint(r, stab))
    return FixedPointReport(tuple(points))


def compare_modes(report: FixedPointReport, p_s: GridDensity) -> FixedPointReport:
    """Attach density critical points and match them to the fixed points.

    Interior extrema come from discrete sign changes of the cell-value
    differences; each non-degenerate fixed point is matched to the nearest
    extremum of the corresponding kind, recording the distance.
    """
    v = p_s.values
    xs = p_s.centers
    extrema: list[DensityExtremum] = []
    # plateau-aware sign changes of the cell differences: a symmetric grid
    # puts a mode on a two-cell plateau, reported at the plateau center
    sign = np.sign(np.diff(v))
    nz = np.flatnonzero(sign)
    for a, b in zip(nz[:-1], nz[1:]):
        x_mid = float(np.mean(xs[a + 1:b + 1]))
        if sign[a] > 0 and sign[b] < 0:
            extrema.append(DensityExtremum(x_mid, ExtremumKind.MAX))
        elif sign[a] < 0 and sign[b] > 0:
            extrema.append(DensityExtremum(x_mid, ExtremumKind.MIN))

    matches = []
    want = {Stability.STABLE: ExtremumKind.MAX, Stability.UNSTABLE: ExtremumKind.MIN}
    for fp in report.fixed_points:
        if fp.stability is Stability.DEGENERATE:
            continue
        kind = want[fp.stability]
        candidates = [e for e in extrema if e.kind is kind]
        if candidates:
            best = min(candidates, key=lambda e: abs(e.x - fp.x))
            matches.append((fp.x, best.x, abs(best.x - fp.x)))
    return FixedPointReport(report.fixed_points, tuple(extrema), tuple(matches))
