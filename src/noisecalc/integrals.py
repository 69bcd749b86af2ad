"""Riemann-sum stochastic integration under the three evaluation rules.

The left rule is the Ito sum, the right rule is the Hanggi-Klimontovich
(backward-Ito) sum, and the midpoint rule is the Stratonovich sum.  The
midpoint rule evaluates the path at the grid point whose time is nearest the
interval midpoint, so the working grid must contain those points: the sum
runs over pairs of consecutive steps and reads the path value at the shared
interior point.  Dyadic grids satisfy this by construction.

Limits "in probability" are operationalized as dyadic refinement of one
fixed path (bridge-consistent), reported as a :class:`ConvergenceTable`;
ensemble quantiles over seeds quantify the distributional statements.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from .paths import SamplePath, SeedSpec, TimeGrid, VectorPath, _check_same_grid, generate_brownian, refine_bridge
from .sde import EvaluationRule
from .solvers import SolverScheme, _run_engine

__all__ = [
    "EvaluationRule",
    "ConvergenceTable",
    "StepProcess",
    "stochastic_sum",
    "convergence_table",
    "hk_integral",
    "hk_correction",
    "multidim_hk_sum",
    "multidim_correction",
    "realized_variation",
    "realized_cross_variation",
    "backward_regularized",
]


def _apply_scalar(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Apply a scalar function, vectorized when the callable allows it."""
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([fn(float(v)) for v in xs], dtype=float)


def _rule_factors(values: np.ndarray, integrand: np.ndarray, rule: EvaluationRule):
    """Evaluation values and matching increments for one rule.

    ``values`` feeds the integrand, ``integrand`` is differenced (along the
    first axis, so vector paths work row by row).  For the
    midpoint rule the partition coarsens to pairs of steps and the interior
    point supplies the evaluation value; an odd number of steps is rejected.
    """
    if rule is EvaluationRule.LEFT:
        return values[:-1], np.diff(integrand, axis=0)
    if rule is EvaluationRule.RIGHT:
        return values[1:], np.diff(integrand, axis=0)
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("midpoint rule needs an even number of steps")
    return values[1::2], integrand[2::2] - integrand[:-2:2]


def stochastic_sum(
    phi: Callable[[float], float],
    eval_path: SamplePath,
    integrator: SamplePath,
    rule: EvaluationRule,
) -> float:
    """Sum of ``phi(eval value) * (integrator increment)`` under ``rule``."""
    _check_same_grid(eval_path, integrator)
    pts, incs = _rule_factors(eval_path.values, integrator.values, rule)
    return float(np.sum(_apply_scalar(phi, pts) * incs))


def realized_variation(path: SamplePath) -> float:
    """Sum of squared increments along the grid."""
    dx = path.increments()
    return float(np.sum(dx * dx))


def realized_cross_variation(x: SamplePath, y: SamplePath) -> float:
    _check_same_grid(x, y)
    return float(np.sum(x.increments() * y.increments()))


def hk_correction(
    phi_prime: Callable[[float], float],
    path: SamplePath,
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """Trapezoid value of the drift correction integral along one path.

    Integrates ``phi_prime(X_t) * g(X_t, t)**2`` over the path's grid, the
    term by which the right-rule integral exceeds the left-rule one when
    ``g`` is the diffusion coefficient of ``X``.  For a Brownian integrator
    use ``g = 1``.
    """
    t = path.grid.points
    x = path.values
    integrand = _apply_scalar(phi_prime, x) * np.asarray(g(x, t), dtype=float) ** 2
    return float(_trapezoid(integrand, t))


@dataclass(frozen=True)
class ConvergenceTable:
    """Values of one rule's sums over dyadic refinements of a fixed path."""

    rule: EvaluationRule
    n_steps: tuple[int, ...]
    values: tuple[float, ...]
    diverged_levels: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.n_steps) != len(self.values):
            raise ValueError("n_steps and values must align")
        if any(b <= a for a, b in zip(self.n_steps, self.n_steps[1:])):
            raise ValueError("refinement levels must strictly increase")

    @property
    def extrapolated(self) -> float:
        return self.values[-1]

    @property
    def diverged(self) -> bool:
        return len(self.diverged_levels) > 0

    def write_csv(self, fp: TextIO) -> None:
        fp.write("n_steps,value\n")
        for n, v in zip(self.n_steps, self.values):
            fp.write(f"{n},{float(v)!r}\n")
        fp.write(f"# extrapolated,{float(self.extrapolated)!r}\n")


def _euler_path_from_driver(model, driver: SamplePath) -> SamplePath:
    """Euler path of ``model``'s Ito form driven by a given noise path.

    One path of the ensemble engine under boundary ``None``: a state outside
    the model's domain is flagged and clamped to its edge, as in every
    engine run.
    """
    raw = _run_engine(model, SolverScheme.EULER_MARUYAMA_ITO_FORM, driver.grid.points, 1,
                      driver.increments()[None, :], None, record="path")
    return SamplePath(driver.grid, raw.recorded[:, 0])


def convergence_table(
    phi: Callable[[float], float],
    path: SamplePath,
    refinement_levels: int,
    seed: SeedSpec,
    rule: EvaluationRule,
    model=None,
) -> ConvergenceTable:
    """Rule sums of ``phi(X) dX`` over dyadic refinements of one path.

    With ``model=None`` the path is taken to be Brownian and refined by
    bridge sampling directly.  With a model, the path's grid and the model's
    initial state define level 0; the Brownian driver is bridge-refined and
    the diffusion re-simulated on each refined grid with the shared noise
    (see :func:`_euler_path_from_driver`; states are kept in its domain).
    """
    if refinement_levels < 0:
        raise ValueError("refinement_levels must be >= 0")
    steps: list[int] = []
    vals: list[float] = []
    bad: list[int] = []

    driver = generate_brownian(path.grid, seed) if model is not None else path
    for level in range(refinement_levels + 1):
        if level > 0:
            driver = refine_bridge(driver, 2, seed.shifted(level))
        x = _euler_path_from_driver(model, driver) if model is not None else driver
        value = stochastic_sum(phi, x, x, rule)
        if not np.isfinite(value):
            bad.append(level)
            value = np.nan
        steps.append(x.grid.n_steps)
        vals.append(value)
    return ConvergenceTable(rule, tuple(steps), tuple(vals), tuple(bad))


def hk_integral(
    phi: Callable[[float], float],
    path: SamplePath,
    refinement_levels: int,
    seed: SeedSpec,
    model=None,
) -> ConvergenceTable:
    """Right-rule convergence table: the Hanggi-Klimontovich integral of
    ``phi(X)`` with respect to ``X`` itself."""
    return convergence_table(phi, path, refinement_levels, seed,
                             EvaluationRule.RIGHT, model=model)


def _matrix_values(psi, xs: np.ndarray, ts: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Evaluate a matrix-valued function along a path, batched if possible."""
    try:
        out = np.asarray(psi(xs, ts), dtype=float)
        if out.shape == (xs.shape[0], *shape):
            return out
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([psi(x, float(t)) for x, t in zip(xs, ts)], dtype=float)


def multidim_hk_sum(
    psi: Callable,
    path: VectorPath,
    rule: EvaluationRule,
) -> np.ndarray:
    """Rule sum of a matrix integrand against a vector path.

    ``psi(x, t)`` maps an m-vector state and a time to a (d, m) matrix; the
    sum of matrix-vector products ``psi(...) @ dX`` over subintervals is a
    d-vector.  The time argument is always the right endpoint of the
    subinterval; only the state argument moves with the rule.  Batched
    integrands (``psi`` of an (n, m) array returning (n, d, m)) are used
    when available.
    """
    x = path.values
    t = path.grid.points
    m = path.dimension
    probe = np.asarray(psi(x[0], float(t[0])), dtype=float)
    if probe.ndim != 2 or probe.shape[1] != m:
        raise ValueError(
            f"integrand must return a (d, {m}) matrix, got shape {probe.shape}"
        )
    d = probe.shape[0]

    pts, dx = _rule_factors(x, x, rule)
    ts = t[2::2] if rule is EvaluationRule.MIDPOINT else t[1:]
    vals = _matrix_values(psi, pts, ts, (d, m))
    # matmul then pairwise column sums: the d=m=1 case reduces bitwise to
    # the scalar stochastic_sum
    per_step = np.matmul(vals, dx[:, :, None])[:, :, 0]
    return np.sum(per_step, axis=0)


def multidim_correction(
    dpsi: Callable,
    b: Callable,
    path: VectorPath,
) -> np.ndarray:
    """Trapezoid value of the multidimensional conversion correction.

    ``dpsi(x, t)`` returns the stacked partials with shape (m, d, m), entry
    ``[k]`` being the (d, m) matrix of derivatives in the k-th coordinate.
    ``b(x, t)`` returns the (m, m) matrix of cross-variation densities of
    the path's components.  The integrand contracts column ``l`` of the
    k-th partial against ``b[l, k]`` and sums over both indices.
    """
    x = path.values
    t = path.grid.points
    m = path.dimension
    dp0 = np.asarray(dpsi(x[0], float(t[0])), dtype=float)
    if dp0.ndim != 3 or dp0.shape[0] != m or dp0.shape[2] != m:
        raise ValueError(
            f"partials must have shape ({m}, d, {m}), got {dp0.shape}"
        )
    d = dp0.shape[1]
    dp = _matrix_values(dpsi, x, t, (m, d, m))
    bv = _matrix_values(b, x, t, (m, m))
    # integrand_j[d'] = sum_{l,k} dpsi_j[k, d', l] * b_j[l, k]
    integrand = np.einsum("jkdl,jlk->jd", dp, bv)
    return np.array([_trapezoid(integrand[:, i], t) for i in range(d)])


@dataclass(frozen=True, eq=False)
class StepProcess:
    """Piecewise constant process: level ``i-1`` on ``(t_{i-1}, t_i]``."""

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        if bp.ndim != 1 or lv.ndim != 1 or lv.size != bp.size - 1:
            raise ValueError("need len(levels) == len(breakpoints) - 1")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must strictly increase")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def value_at(self, times: np.ndarray) -> np.ndarray:
        """Value of the step process; 0 outside ``(t_0, t_m]``."""
        times = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.breakpoints, times) - 1
        out = np.where(
            (idx >= 0) & (idx < self.levels.size),
            self.levels[np.clip(idx, 0, self.levels.size - 1)],
            0.0,
        )
        return out

    def right_rule_sum(self, w: SamplePath) -> float:
        """Discrete right-endpoint sum of the process against ``w``.

        Reads ``w`` by linear interpolation at the breakpoints.
        """
        wv = np.interp(self.breakpoints, w.grid.points, w.values)
        return float(np.sum(self.levels * np.diff(wv)))


def backward_regularized(upsilon, w: SamplePath, eps: float) -> float:
    """Regularized backward integral of ``upsilon`` against ``w``.

    Computes ``\\int upsilon_s (w_s - w_{s-eps}) / eps ds`` over the path's
    time span, with ``w`` extended constantly to the left of its start and
    read by linear interpolation in between.  The time integral uses the
    trapezoid rule on the union of the grid, the grid shifted by ``eps``,
    and the step breakpoints, which integrates the piecewise structure
    exactly.  ``upsilon`` may be a :class:`StepProcess` or a
    :class:`~noisecalc.paths.SamplePath` (interpolated linearly).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = w.grid.points
    t0, t1 = float(t[0]), float(t[-1])
    horizon = t1 - t0
    if eps > 0.1 * horizon:
        raise ValueError(
            f"eps={eps} exceeds 10% of the horizon {horizon}; the constant "
            "left extension would dominate the value"
        )

    if isinstance(upsilon, StepProcess):
        extra = upsilon.breakpoints
        level_of = upsilon.value_at
    elif isinstance(upsilon, SamplePath):
        extra = upsilon.grid.points
        level_of = lambda s: np.interp(s, upsilon.grid.points, upsilon.values)
    else:
        raise TypeError("upsilon must be a StepProcess or SamplePath")

    nodes = np.concatenate([t, t + eps, extra, [t0, t1]])
    nodes = np.unique(nodes)
    nodes = nodes[(nodes >= t0) & (nodes <= t1)]

    # np.interp extends constantly on both sides; only the left matters here.
    w_now = np.interp(nodes, t, w.values)
    w_lag = np.interp(nodes - eps, t, w.values)
    diff_quot = (w_now - w_lag) / eps

    mids = 0.5 * (nodes[:-1] + nodes[1:])
    widths = np.diff(nodes)
    avg = 0.5 * (diff_quot[:-1] + diff_quot[1:])
    return float(np.sum(level_of(mids) * avg * widths))
