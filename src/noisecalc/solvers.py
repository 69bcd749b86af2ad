"""Path simulation for SDE models, boundary handling, and exact oracles.

Every scheme steps with one :class:`~noisecalc.sde.EvaluationRule`:

* ``DIRECT_LEFT``: ``x + f dt + g(x) dW`` (requires an Ito-tagged model).
* ``DIRECT_MIDPOINT_HEUN``: predictor ``x^ = x + f dt + g(x) dW`` then
  corrector ``x + f dt + g((x + x^)/2) dW`` (requires Stratonovich).
* ``DIRECT_RIGHT_PREDICTOR_CORRECTOR``: same predictor, corrector evaluates
  ``g`` at the predicted right endpoint (requires Hanggi-Klimontovich).
  An implicit right-point solve is avoided for robustness.
* ``EULER_MARUYAMA_ITO_FORM``: ``DIRECT_LEFT`` on the converted Ito form,
  valid for any interpretation tag.

One engine steps every scheme over one of two noise sources: keyed block
streams for a seeded run, or a given ``(n_paths, n_steps)`` increment matrix
(the bridge-refined drivers of :func:`strong_convergence_order` and of the
model-driven convergence tables in :mod:`noisecalc.integrals`).

Domain handling, for both sources: a state or evaluation point outside the
closed domain by more than 1e-12 is a DomainViolation (stop, or
flag-and-clamp under boundary ``None``); within tolerance it is clamped to
the edge, which distinguishes genuine boundary pathologies from rounding.
Reflection folds the state back into the interval and logs each fold.

Ensembles are vectorized across paths.  Path ``i`` of a run seeded
``(master, stream, key)`` draws its noise through
:class:`~noisecalc.paths.PathNoise` as path number ``stream + i`` (one
column of a 64-path block stream), so a path's draws are independent of how
many other paths run, of the 512-step chunking and of when paths stop; a
run seeded ``SeedSpec(m, i)`` equals path ``i`` of one seeded
``SeedSpec(m)``.

Stepping contract of the engine, which keeps its outputs bit for bit those
of a loop that gathers, projects and writes back every live path each step:
a chunk's live paths are stepped as one full-width array, compacted only
after a path stops; without a reflecting boundary an unbounded domain is
not projected at all (nothing can be clamped or stopped); and event lists
are built only when paths are recorded.

The exact OU oracles step the velocities of ``delta`` Langevin particles
by exact Gaussian transitions, through one vectorized stepper.  Component
``c`` of oracle path ``i`` of a run seeded ``(master, stream, key)`` draws
from its own substream ``(stream + i) * delta + c``, so path ``i`` of any
oracle is the one-path oracle seeded ``seed.shifted(i)``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .paths import PathNoise, SamplePath, SeedSpec, TimeGrid, generate_brownian, refine_bridge
from .sde import EvaluationRule, Interpretation, SdeModel, to_ito

__all__ = [
    "SolverScheme",
    "Reflect",
    "STOP_ON_VIOLATION",
    "EventKind",
    "Event",
    "PathResult",
    "HittingStats",
    "McConfig",
    "EnsembleSummary",
    "EnsembleResult",
    "NumericError",
    "scheme_for",
    "simulate_path",
    "simulate_ensemble",
    "simulate_reflected",
    "hitting_time",
    "exact_ou_path",
    "exact_kinetic_oracle",
    "exact_kinetic_terminal",
    "kinetic_oracle_hitting",
    "besq_time_change",
    "besq_dimension",
    "strong_convergence_order",
]

_DOMAIN_TOL = 1e-12
# Steps of noise drawn per path at a time by the engine and the exact oracles.
_CHUNK = 512


class NumericError(RuntimeError):
    """Numeric divergence in an otherwise valid run (CLI exit code 3)."""


class SolverScheme(enum.Enum):
    EULER_MARUYAMA_ITO_FORM = "euler_maruyama_ito_form"
    DIRECT_LEFT = "direct_left"
    DIRECT_MIDPOINT_HEUN = "direct_midpoint_heun"
    DIRECT_RIGHT_PREDICTOR_CORRECTOR = "direct_right_predictor_corrector"


_DIRECT_RULE = {
    SolverScheme.DIRECT_LEFT: EvaluationRule.LEFT,
    SolverScheme.DIRECT_MIDPOINT_HEUN: EvaluationRule.MIDPOINT,
    SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR: EvaluationRule.RIGHT,
}
_DIRECT_SCHEME = {rule: scheme for scheme, rule in _DIRECT_RULE.items()}


def scheme_for(interpretation: Interpretation) -> SolverScheme:
    """The direct scheme whose evaluation rule matches an interpretation."""
    return _DIRECT_SCHEME[interpretation.rule]


@dataclass(frozen=True)
class Reflect:
    """Fold the state back into [lo, hi] after each step."""

    lo: float
    hi: float = math.inf

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty reflection interval [{self.lo}, {self.hi}]")


STOP_ON_VIOLATION = "stop_on_violation"

Boundary = Reflect | str | None


class EventKind(enum.Enum):
    DOMAIN_VIOLATION = "domain_violation"
    REFLECTION = "reflection"
    HIT_LEVEL = "hit_level"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    time: float
    value: float


@dataclass(frozen=True)
class PathResult:
    path: SamplePath
    events: tuple[Event, ...]
    terminated_early: bool


@dataclass(frozen=True)
class HittingStats:
    """First-passage statistics over an ensemble.

    A hit is declared when the path enters the band around ``level`` from
    its starting side: ``x <= level + band`` when started above the level,
    ``x >= level - band`` when started below.  Censored paths (no hit by
    the horizon) count in ``n_paths`` but not in the mean.
    """

    level: float
    band: float
    n_paths: int
    n_hit: int
    fraction_hit: float
    mean_hit_time: float | None
    ci95: float | None

    def to_json_dict(self) -> dict:
        return {
            "fraction": self.fraction_hit,
            "mean_time": self.mean_hit_time,
            "ci95": self.ci95,
        }


@dataclass(frozen=True)
class McConfig:
    """Ensemble run configuration.

    ``record`` chooses what each path keeps: ``"path"`` stores values every
    ``record_stride`` steps, ``"terminal"`` keeps only endpoints (use this
    for large ensembles).
    """

    n_paths: int
    dt: float
    horizon: float
    seed: SeedSpec
    boundary: Boundary = None
    record: str = "path"
    record_stride: int = 1

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one step")
        if self.record not in ("path", "terminal"):
            raise ValueError(f"unknown record mode {self.record!r}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if isinstance(self.boundary, str) and self.boundary != STOP_ON_VIOLATION:
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        steps = self.horizon / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"horizon {self.horizon} is not a whole number of "
                             f"dt={self.dt} steps")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.horizon / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class EnsembleSummary:
    n_paths: int
    dt: float
    horizon: float
    scheme: SolverScheme
    interpretation: Interpretation
    terminal_mean: float
    terminal_var: float
    n_completed: int
    violations: int
    reflections: int
    histogram: tuple[np.ndarray, np.ndarray]  # (bin_edges, densities)
    hitting: HittingStats | None = None

    def to_json_dict(self) -> dict:
        out = {
            "n_paths": self.n_paths,
            "dt": self.dt,
            "horizon": self.horizon,
            "scheme": self.scheme.value,
            "interpretation": self.interpretation.value,
            "terminal_mean": self.terminal_mean,
            "terminal_var": self.terminal_var,
            "events": {"violations": self.violations, "reflections": self.reflections},
        }
        if self.hitting is not None:
            out["hitting"] = self.hitting.to_json_dict()
        return out


@dataclass(frozen=True)
class EnsembleResult:
    results: tuple[PathResult, ...] | None
    summary: EnsembleSummary
    terminals: np.ndarray | None = None  # completed paths only, in path order


def _effective(model: SdeModel, scheme: SolverScheme):
    """Coefficients and evaluation rule actually stepped by a scheme."""
    if scheme is SolverScheme.EULER_MARUYAMA_ITO_FORM:
        ito = to_ito(model)
        return ito.f, ito.g, EvaluationRule.LEFT
    rule = _DIRECT_RULE[scheme]
    if model.interpretation.rule is not rule:
        raise ValueError(
            f"{scheme.value} reads g at the {rule.value} point and needs a model "
            f"tagged with that rule, got {model.interpretation.value}"
        )
    return model.f, model.g, rule


def _fold_into(v: np.ndarray, lo: float, hi: float):
    """Reflected positions, and the indices and fold counts of the values
    outside [lo, hi].  On a half-line, ``v`` itself when none is outside."""
    if math.isinf(lo) or math.isinf(hi):
        out = v > hi if math.isinf(lo) else v < lo
        hits = out.nonzero()[0]
        if hits.size:
            v = np.where(out, 2 * (hi if math.isinf(lo) else lo) - v, v)
        return v, hits, 1
    length = hi - lo
    q = np.floor((v - lo) / length)
    r = (v - lo) - q * length
    folds = np.abs(q).astype(np.int64)
    hits = folds.nonzero()[0]
    return np.where((q % 2) == 0, lo + r, hi - r), hits, folds[hits]


class _Raw:
    """Plain container for engine output, one slot per path."""

    def __init__(self, n: int, x0: float, n_steps: int):
        self.terminal = np.full(n, x0)
        self.completed = np.ones(n, dtype=bool)
        self.final_step = np.full(n, n_steps, dtype=np.int64)
        self.violations = np.zeros(n, dtype=np.int64)
        self.reflections = np.zeros(n, dtype=np.int64)
        self.moved = np.zeros(n, dtype=bool)
        self.hit_time = np.full(n, np.nan)
        self.recorded: np.ndarray | None = None
        self.recorded_steps: np.ndarray | None = None
        self.events: list[list[Event]] | None = None


class _GivenNoise:
    """A given ``(n_paths, n_steps)`` increment matrix, read with the
    ``(tiles, at)`` contract of :meth:`PathNoise.draw`: row ``ids[j]``'s
    increment at step ``s`` of a call is ``tiles[at[j] + s * stride]``."""

    stride = 1

    def __init__(self, dw, n_paths: int, n_steps: int):
        dw = np.ascontiguousarray(dw, dtype=float)
        if dw.shape != (n_paths, n_steps):
            raise ValueError(f"increments of shape {dw.shape}, expected ({n_paths}, {n_steps})")
        self._flat, self._n_steps, self._step = dw.reshape(-1), n_steps, 0

    def draw(self, ids: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        at = ids * self._n_steps + self._step
        self._step += width
        return self._flat, at


def _run_engine(
    model: SdeModel,
    scheme: SolverScheme,
    times: np.ndarray,
    n_paths: int,
    noise: SeedSpec | np.ndarray,
    boundary: Boundary,
    *,
    record: str = "terminal",
    record_stride: int = 1,
    hit_level: float | None = None,
    hit_band: float = 0.0,
) -> _Raw:
    """Step ``n_paths`` paths; recorded paths also log their events, and
    with a ``hit_level`` each path freezes at its first hit.

    ``noise`` is a :class:`SeedSpec`, whose paths draw standard normals
    scaled by ``sqrt(dt)``, or a given ``(n_paths, n_steps)`` matrix of
    increments, stepped as they are.
    """
    f, g, rule = _effective(model, scheme)
    lo, hi = model.domain
    if isinstance(boundary, Reflect):
        if boundary.lo < lo - _DOMAIN_TOL or boundary.hi > hi + _DOMAIN_TOL:
            raise ValueError("reflection interval must lie inside the model domain")

    n_steps = times.size - 1
    dts = np.diff(times)
    if isinstance(noise, SeedSpec):
        noise, scale = PathNoise(noise, n_paths), np.sqrt(dts)
    else:  # 1.0 * dw is dw bit for bit
        noise, scale = _GivenNoise(noise, n_paths, n_steps), np.ones(n_steps)
    x0 = float(model.x0)
    raw = _Raw(n_paths, x0, n_steps)
    events = raw.events = [[] for _ in range(n_paths)] if record == "path" else None

    rec_lookup: dict[int, int] = {}
    if record == "path":
        rec_steps = list(range(0, n_steps + 1, record_stride))
        if rec_steps[-1] != n_steps:
            rec_steps.append(n_steps)
        raw.recorded_steps = np.asarray(rec_steps, dtype=np.int64)
        # NaN marks the rows after every path's final step, which no step writes
        raw.recorded = np.full((len(rec_steps), n_paths), np.nan)
        raw.recorded[0] = x0
        rec_lookup = {s: r for r, s in enumerate(rec_steps) if s > 0}

    x = np.full(n_paths, x0)
    ids = np.arange(n_paths)

    hit_down = True
    if hit_level is not None:
        hit_down = x0 >= hit_level
        in_band = x0 <= hit_level + hit_band if hit_down else x0 >= hit_level - hit_band
        if in_band:
            raw.hit_time[:] = times[0]
            raw.final_step[:] = 0
            ids = ids[:0]

    def _project(values, t_now):
        """Boundary policy for the live rows: safe values, and the rows to
        stop (None when there are none)."""
        if isinstance(boundary, Reflect):
            folded, hits, folds = _fold_into(values, boundary.lo, boundary.hi)
            if hits.size:
                raw.reflections[ids[hits]] += folds
                if events is not None:
                    for j in hits:
                        events[ids[j]].append(Event(EventKind.REFLECTION, t_now, float(folded[j])))
            return folded.clip(lo, hi), None
        below = values < lo - _DOMAIN_TOL  # on a half-line, the only test
        bad = (below if math.isinf(hi) else below | (values > hi + _DOMAIN_TOL)).nonzero()[0]
        if bad.size:
            raw.violations[ids[bad]] += 1
            if events is not None:
                for j in bad:
                    events[ids[j]].append(
                        Event(EventKind.DOMAIN_VIOLATION, t_now, float(values[j])))
        stop = bad if bad.size and boundary == STOP_ON_VIOLATION else None
        return values.clip(lo, hi), stop

    # without reflection an unbounded domain has nothing to clamp or stop
    free = not isinstance(boundary, Reflect) and math.isinf(lo) and math.isinf(hi)

    def _stop(rows, final, value, crossed):
        """End the live ``rows`` on a fatal value: ``value`` becomes their
        state and terminal, ``final`` their last step."""
        dead = ids[rows]
        x[dead] = value
        raw.moved[dead] = mv[rows] | (value != x0)
        raw.completed[dead] = False
        raw.final_step[dead] = final
        raw.terminal[dead] = value
        if hit_level is not None:
            _mark_crossing_hits(raw, dead, crossed, t_next, hit_level, hit_band, hit_down)
        keep = np.ones(ids.size, dtype=bool)
        keep[rows] = False
        return keep

    stride = noise.stride
    step = 0
    while step < n_steps and ids.size:
        width = min(_CHUNK, n_steps - step)
        tiles, at = noise.draw(ids, width)
        # the chunk's live rows: path ids, states, moved flags and noise
        # offsets, gathered again only when a path stops
        xa, mv = x[ids], raw.moved[ids]

        for c in range(width):
            k = step + c
            t_now, t_next, dt = times[k], times[k + 1], dts[k]
            dw = scale[k] * tiles[at + c * stride]
            # the drift part x + f dt, shared by the predictor and a corrector
            base = xa + np.asarray(f(xa, t_now), dtype=float) * dt
            prop = base + np.asarray(g(xa, t_now), dtype=float) * dw

            if rule is not EvaluationRule.LEFT:
                if rule is EvaluationRule.MIDPOINT:
                    point, t_eval = 0.5 * (xa + prop), t_now + 0.5 * dt
                else:
                    point, t_eval = prop, t_next
                point_safe, stop = (point, None) if free else _project(point, t_next)
                if stop is not None:
                    keep = _stop(stop, k, xa[stop], point[stop])
                    ids, xa, mv, at, base, dw, point_safe = (
                        a[keep] for a in (ids, xa, mv, at, base, dw, point_safe))
                    if ids.size == 0:
                        break
                prop = base + np.asarray(g(point_safe, t_eval), dtype=float) * dw

            xa, stop = (prop, None) if free else _project(prop, t_next)
            if stop is not None:
                keep = _stop(stop, k + 1, prop[stop], prop[stop])
                ids, xa, mv, at = (a[keep] for a in (ids, xa, mv, at))
            mv |= xa != x0

            if hit_level is not None:  # a live path has not hit yet
                entered = (xa <= hit_level + hit_band) if hit_down \
                    else (xa >= hit_level - hit_band)
                new = entered.nonzero()[0]
                if new.size:
                    just_hit = ids[new]
                    raw.hit_time[just_hit] = t_next
                    if events is not None:
                        for i, v in zip(just_hit, xa[new]):
                            events[i].append(Event(EventKind.HIT_LEVEL, t_next, float(v)))
                    x[just_hit] = raw.terminal[just_hit] = xa[new]
                    raw.moved[just_hit] = mv[new]
                    raw.final_step[just_hit] = k + 1
                    keep = ~entered
                    ids, xa, mv, at = (a[keep] for a in (ids, xa, mv, at))

            if raw.recorded is not None and (k + 1) in rec_lookup:
                x[ids] = xa
                raw.recorded[rec_lookup[k + 1]] = x
            if ids.size == 0:
                break

        x[ids] = xa
        raw.moved[ids] = mv
        step += width
        del tiles  # frees this chunk's noise before the next chunk draws

    finished = raw.completed & (raw.final_step == n_steps)
    raw.terminal[finished] = x[finished]
    return raw


def _mark_crossing_hits(raw, ids, values, t, level, band, hit_down):
    """Count a fatal violation as a hit when its value crossed the band."""
    cond = (values <= level + band) if hit_down else (values >= level - band)
    sel = cond & np.isnan(raw.hit_time[ids])
    raw.hit_time[ids[sel]] = t


def _path_result(raw: _Raw, times: np.ndarray, i: int) -> PathResult:
    last = int(raw.final_step[i])
    steps = raw.recorded_steps
    keep = steps <= last
    t = times[steps[keep]]
    values = raw.recorded[keep, i].copy()
    if not np.isfinite(values).all():  # a diverged run, not an invalid input
        raise NumericError(f"path {i} diverged: its values are not all finite")
    events = tuple(raw.events[i]) if raw.events is not None else ()
    return PathResult(
        path=SamplePath(TimeGrid(t), values),
        events=events,
        terminated_early=not bool(raw.completed[i]),
    )


def simulate_path(
    model: SdeModel,
    scheme: SolverScheme,
    grid: TimeGrid,
    seed: SeedSpec,
    boundary: Boundary = None,
) -> PathResult:
    """Simulate one path of ``model`` under ``scheme`` on ``grid``."""
    raw = _run_engine(
        model, scheme, grid.points, 1, seed, boundary,
        record="path", record_stride=1,
    )
    return _path_result(raw, grid.points, 0)


def _summarize(model, scheme, cfg, raw, hitting=None) -> EnsembleSummary:
    terminal = raw.terminal[raw.completed]
    mean, var = math.nan, math.nan
    hist, edges = np.array([]), np.array([])
    if terminal.size:
        with np.errstate(all="ignore"):  # terminals of +inf and -inf
            mean = float(terminal.mean())
    if math.isfinite(mean):  # a diverged ensemble has no spread or histogram
        var = float(terminal.var(ddof=1)) if terminal.size > 1 else 0.0
        bins = min(50, max(5, terminal.size // 20 + 5))
        hist, edges = np.histogram(terminal, bins=bins, density=True)
    return EnsembleSummary(
        n_paths=cfg.n_paths,
        dt=cfg.dt,
        horizon=cfg.horizon,
        scheme=scheme,
        interpretation=model.interpretation,
        terminal_mean=mean,
        terminal_var=var,
        n_completed=int(raw.completed.sum()),
        violations=int(raw.violations.sum()),
        reflections=int(raw.reflections.sum()),
        histogram=(edges, hist),
        hitting=hitting,
    )


def simulate_ensemble(model: SdeModel, scheme: SolverScheme, cfg: McConfig) -> EnsembleResult:
    """Independent paths numbered ``stream + i`` of ``cfg.seed``.

    Domain violations and reflections are events of their path and never
    abort the ensemble; the summary is a pure function of
    ``(model, scheme, cfg)`` regardless of execution interleaving.  A path
    that diverges to a non-finite value is not an event: with
    ``record="terminal"`` its terminal is non-finite (and so is the
    summary's mean), and with ``record="path"`` the run raises
    :class:`NumericError` naming the first such path, because a
    :class:`SamplePath` cannot hold it.
    """
    times = cfg.times()
    raw = _run_engine(
        model, scheme, times, cfg.n_paths, cfg.seed, cfg.boundary,
        record=cfg.record, record_stride=cfg.record_stride,
    )
    results = None
    if cfg.record == "path":
        results = tuple(_path_result(raw, times, i) for i in range(cfg.n_paths))
    return EnsembleResult(results, _summarize(model, scheme, cfg, raw),
                          raw.terminal[raw.completed].copy())


def simulate_reflected(
    model: SdeModel,
    scheme: SolverScheme,
    interval: tuple[float, float],
    cfg: McConfig,
) -> PathResult:
    """One path folded into ``interval`` after each step."""
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not (a <= model.x0 <= b):
        raise ValueError(f"x0={model.x0} outside [{a}, {b}]")
    times = cfg.times()
    raw = _run_engine(
        model, scheme, times, 1, cfg.seed, Reflect(a, b),
        record="path", record_stride=cfg.record_stride,
    )
    return _path_result(raw, times, 0)


def hitting_time(
    model: SdeModel,
    scheme: SolverScheme,
    level: float,
    band: float,
    cfg: McConfig,
) -> HittingStats:
    """First-passage statistics of the band around ``level``.

    Paths freeze at their first hit (their noise is not used after it); a
    fatal domain violation whose value crossed the band also counts as a
    hit at that time.
    """
    if band <= 0:
        raise ValueError("band must be positive")
    times = cfg.times()
    raw = _run_engine(
        model, scheme, times, cfg.n_paths, cfg.seed, cfg.boundary,
        record="terminal", hit_level=level, hit_band=band,
    )
    return _hitting_stats(level, band, cfg.n_paths, raw.hit_time)


def _hitting_stats(level, band, n_paths, hit_time) -> HittingStats:
    hits = hit_time[~np.isnan(hit_time)]
    n_hit = int(hits.size)
    if n_hit:
        mean = float(hits.mean())
        sd = float(hits.std(ddof=1)) if n_hit > 1 else 0.0
        ci = 1.96 * sd / math.sqrt(n_hit)
    else:
        mean, ci = None, None
    return HittingStats(
        level=level, band=band, n_paths=n_paths, n_hit=n_hit,
        fraction_hit=n_hit / n_paths, mean_hit_time=mean, ci95=ci,
    )


# --- exact oracles ----------------------------------------------------------


def _ou_coefficients(m: float, gamma: float, sigma: float, h):
    """Exact transition: mean decay factor and noise scale over a step."""
    decay = np.exp(-gamma * np.asarray(h, dtype=float) / m)
    scale = np.sqrt(sigma**2 / (2 * gamma * m) * (1.0 - decay**2))
    return decay, scale


def _check_langevin(m, gamma, sigma):
    if min(m, gamma, sigma) <= 0:
        raise ValueError("m, gamma, sigma must all be positive")


def _energy(m: float, v: np.ndarray) -> np.ndarray:
    """Kinetic energy ``m |v|^2 / 2`` over the last (component) axis."""
    return 0.5 * m * np.sum(v * v, axis=-1)


def _oracle_velocities(
    delta: int, m: float, gamma: float, sigma: float, v0s: Sequence[float],
    h, n_paths: int, seed: SeedSpec, level: float | None = None,
) -> np.ndarray:
    """Velocities ``(n_paths, len(h) + 1, delta)`` of oracle paths over the
    spacings ``h``, drawn ``_CHUNK`` steps a call.  With a ``level``, each
    path's first step of energy at most ``level`` instead (-1 for none); a
    path draws no chunk after the one it hits in.
    """
    if delta not in (1, 2) or len(v0s) != delta:
        raise ValueError("delta must be 1 or 2 and match len(v0s)")
    _check_langevin(m, gamma, sigma)
    decay, scale = _ou_coefficients(m, gamma, sigma, h)
    n_steps = decay.size
    gens = [[SeedSpec(seed.master, (seed.stream + i) * delta + c, seed.key).generator()
             for c in range(delta)] for i in range(n_paths)]
    v = np.tile(np.asarray(v0s, dtype=float), (n_paths, 1))
    if level is None:
        out = np.empty((n_paths, n_steps + 1, delta))
        out[:, 0] = v
        live = np.arange(n_paths)
    else:
        out = np.where(_energy(m, v) <= level, 0, -1)
        live = np.flatnonzero(out < 0)

    step = 0
    while step < n_steps and live.size:
        width = min(_CHUNK, n_steps - step)
        z = np.empty((live.size, delta, width))
        for row, i in enumerate(live):
            for c, gen in enumerate(gens[i]):
                gen.standard_normal(out=z[row, c])
        va, alive = v[live], np.ones(live.size, dtype=bool)
        for s in range(width):
            k = step + s
            va = va * decay[k] + scale[k] * z[:, :, s]
            if level is None:
                out[:, k + 1] = va
                continue
            hit = np.flatnonzero(alive & (_energy(m, va) <= level))
            if hit.size:
                out[live[hit]] = k + 1
                alive[hit] = False
                if not alive.any():
                    break
        v[live] = va
        live = live[alive]
        step += width
    return out


def exact_ou_path(
    m: float, gamma: float, sigma: float, v0: float,
    grid: TimeGrid, seed: SeedSpec,
) -> SamplePath:
    """Velocity path with exact Gaussian transitions at the grid times.

    ``V_{t+h} | V_t`` is normal with mean ``V_t exp(-gamma h / m)`` and
    variance ``sigma^2 / (2 gamma m) * (1 - exp(-2 gamma h / m))``, so the
    sampled skeleton is exact in distribution for any spacing.
    """
    v = _oracle_velocities(1, m, gamma, sigma, [v0], grid.spacings, 1, seed)
    return SamplePath(grid, v[0, :, 0])


def exact_kinetic_oracle(
    delta: int, m: float, gamma: float, sigma: float,
    v0s: Sequence[float], grid: TimeGrid, seed: SeedSpec,
) -> SamplePath:
    """Kinetic energy of ``delta`` independent Langevin particles.

    Built from exact velocity transitions, one substream per component
    (module docstring), hence exact in distribution at the grid times;
    this is the independent oracle for the kinetic-energy claims.
    """
    v = _oracle_velocities(delta, m, gamma, sigma, v0s, grid.spacings, 1, seed)
    return SamplePath(grid, _energy(m, v[0]))


def exact_kinetic_terminal(
    delta: int, m: float, gamma: float, sigma: float,
    v0s: Sequence[float], horizon: float, n_paths: int, seed: SeedSpec,
) -> np.ndarray:
    """Terminal kinetic-energy sample, one exact transition per particle;
    entry ``i`` is the final value of :func:`exact_kinetic_oracle` on the
    grid ``[0, horizon]`` seeded ``seed.shifted(i)``."""
    v = _oracle_velocities(delta, m, gamma, sigma, v0s, [horizon], n_paths, seed)
    return _energy(m, v[:, 1])


def kinetic_oracle_hitting(
    delta: int, m: float, gamma: float, sigma: float,
    v0s: Sequence[float], level: float, band: float, cfg: McConfig,
) -> HittingStats:
    """Ensemble first-passage statistics of the exact kinetic oracle.

    Vectorized across paths; path ``i`` is :func:`exact_kinetic_oracle`
    seeded ``cfg.seed.shifted(i)``, step for step.  Paths freeze at their
    first entry into the band.
    """
    if band <= 0:
        raise ValueError("band must be positive")
    # every spacing is dt itself: np.diff of the grid would round differently
    hit_step = _oracle_velocities(delta, m, gamma, sigma, v0s, np.full(cfg.n_steps, cfg.dt),
                                  cfg.n_paths, cfg.seed, level=level + band)
    hit_time = np.where(hit_step >= 0, cfg.times()[hit_step], np.nan)
    return _hitting_stats(level, band, cfg.n_paths, hit_time)


def besq_time_change(t: float, m: float, gamma: float, sigma: float) -> float:
    """Clock mapping the kinetic SDE onto a squared Bessel process:
    ``s(t) = sigma^2 / (4 gamma) * (exp(2 gamma t / m) - 1)``."""
    _check_langevin(m, gamma, sigma)
    return sigma**2 / (4 * gamma) * math.expm1(2 * gamma * t / m)


def besq_dimension(model_kind: str) -> int:
    """Squared-Bessel dimension of a kinetic-energy family."""
    kinds = {"single": 1, "langevin1": 1, "two_particle": 2, "langevin2": 2}
    try:
        return kinds[model_kind]
    except KeyError:
        raise ValueError(f"unknown model kind {model_kind!r}") from None


# --- strong convergence -------------------------------------------------------


def strong_convergence_order(
    model: SdeModel,
    scheme: SolverScheme,
    dts: Sequence[float],
    cfg: McConfig,
    reference: str | Callable[[SamplePath], float] = "finest",
    ref_factor: int = 16,
) -> float:
    """Least-squares slope of log strong error at the horizon vs log dt.

    ``dts`` must be strictly decreasing with dyadic ratios.  The driving
    noise is shared across resolutions by bridge refinement of one coarse
    path per ensemble member; the reference is either the same scheme on a
    ``ref_factor`` times finer grid, or a caller-supplied oracle mapping
    the finest driver path to an exact terminal value.
    """
    dts = list(dts)
    if len(dts) < 3:
        raise ValueError("need at least 3 dt levels")
    for a, b in zip(dts, dts[1:]):
        if not b < a:
            raise ValueError("dts must be strictly decreasing")
        ratio = a / b
        r = round(ratio)
        if abs(ratio - r) > 1e-9 or r < 2 or (r & (r - 1)):
            raise ValueError("dts must refine dyadically")
    if ref_factor < 2 or ref_factor & (ref_factor - 1):
        raise ValueError("ref_factor must be a power of two >= 2")

    T = cfg.horizon
    n_levels = [round(T / dt) for dt in dts]
    if abs(T / n_levels[0] - dts[0]) > 1e-12 * max(1.0, T):
        raise ValueError("horizon must be an integer multiple of the coarsest dt")
    n_ref = n_levels[-1] * ref_factor

    n_paths = cfg.n_paths

    ladders: dict[int, list[np.ndarray]] = {n: [] for n in n_levels + [n_ref]}
    grid0 = TimeGrid.uniform(0.0, T, n_levels[0])
    times_of = {n: np.arange(n + 1) * (T / n) for n in set(n_levels + [n_ref])}
    for p in range(n_paths):
        w = generate_brownian(grid0, cfg.seed.shifted(p))
        n = n_levels[0]
        level = 0
        while True:
            if n in ladders:
                ladders[n].append(np.diff(w.values))
            if n >= n_ref:
                break
            level += 1
            w = refine_bridge(w, 2, cfg.seed.shifted(n_paths + p * 64 + level))
            n *= 2

    ref_incs = np.vstack(ladders[n_ref])
    if reference == "finest":
        x_ref = _run_engine(model, scheme, times_of[n_ref], n_paths, ref_incs, None).terminal
    else:
        grid_ref = TimeGrid(times_of[n_ref])
        x_ref = np.array([
            reference(SamplePath(grid_ref, np.concatenate([[0.0], np.cumsum(inc)])))
            for inc in ref_incs
        ])

    errs = []
    for n in n_levels:
        incs = np.vstack(ladders[n])
        x_end = _run_engine(model, scheme, times_of[n], n_paths, incs, None).terminal
        errs.append(float(np.mean(np.abs(x_end - x_ref))))
    if any(e <= 0 for e in errs):
        raise ValueError("zero strong error: a level coincides with the reference")
    slope = np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(errs)), 1)[0]
    return float(slope)
