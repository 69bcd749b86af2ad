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
(the bridge-refined drivers of the model-driven convergence tables and of
``strong_convergence_order``, both in :mod:`noisecalc.integrals`).

Domain handling, for both sources: a state or evaluation point outside the
closed domain by more than 1e-12 is a DomainViolation (stop, or
flag-and-clamp under boundary ``None``); within tolerance it is clamped to
the edge, which distinguishes genuine boundary pathologies from rounding.
Reflection folds a value that crossed the interval's ends back into it
and logs each fold; every other value is left as it is, and on a finite
interval a crossing too far to fold (2^53 lengths or more) becomes NaN.
A :class:`McConfig` holds paths, step, horizon and seed; the boundary
policy and the record mode are parameters of the functions that read them,
checked once, by the engine, for every run: the boundary is ``None``,
:data:`STOP_ON_VIOLATION` or a :class:`Reflect` interval that lies in the
domain and contains the start.

Ensembles are vectorized across paths.  Path ``i`` of a run seeded
``(master, stream, key)`` draws its noise through
:class:`~noisecalc.paths.PathNoise` as path number ``stream + i`` (one
column of a 64-path block stream), so a path's draws are independent of how
many other paths run, of the chunking and of when paths stop; a run seeded
``SeedSpec(m, i)`` equals path ``i`` of one seeded ``SeedSpec(m)``.

The engine and the exact oracles draw their noise a chunk of steps at a
time (:func:`_chunk_steps`): a chunk holds at most ``_NOISE_BUDGET``
normals (1 MiB), but never fewer than ``_MIN_CHUNK`` steps, nor more than
``_MAX_CHUNK`` steps or the steps left.  The noise source supplies the
normals a step draws: 64 for each live block of a seeded run, and none for
a given increment matrix, which is read in ``_MAX_CHUNK``-step chunks.  A
run too wide for the budget draws ``_MIN_CHUNK`` steps, 512 B per path.

Stepping contract of the engine, which keeps its outputs bit for bit those
of a loop that gathers, projects and writes back every live path each step:
a chunk's live paths are stepped as one full-width array, compacted only
after a path stops; without a reflecting boundary an unbounded domain is
not projected at all (nothing can be clamped or stopped); and event lists
are built only when paths are recorded.  A seeded run that starts at a
rest point of its scheme is not stepped: when ``f`` and ``g`` vanish
exactly at ``x0`` at every time a step evaluates them (:func:`_at_rest`),
each step would add a zero to ``x0``, and the projection gives a value in
the domain and the reflection interval back bit for bit, so the loop would
leave the initial result as it is, and every recorded row is ``x0``.  It
draws nothing, so it opens no block stream.  A ``-0.0`` start (``-0.0 +
0.0`` is ``+0.0``) and a given increment matrix (``0 * inf`` is NaN) are
stepped.

The exact OU oracles step the velocities of ``delta`` Langevin particles
by exact Gaussian transitions, through one vectorized stepper.  Component
``c`` draws through the block streams of ``seed.child(ORACLE, c)``, under
the engine's rule, so path ``i`` of any oracle is the one-path oracle seeded
``seed.shifted(i)``, and no oracle shares a draw with a Brownian driver or
an engine run of the same seed.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paths import ORACLE, PathNoise, SamplePath, SeedSpec, TimeGrid
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
    "hitting_time",
    "exact_ou_path",
    "exact_kinetic_oracle",
    "exact_kinetic_terminal",
    "kinetic_oracle_hitting",
    "besq_time_change",
]

_DOMAIN_TOL = 1e-12
# Noise chunks of the engine and the exact oracles (_chunk_steps): at most
# this many normals a chunk, and between _MIN_CHUNK and _MAX_CHUNK steps.
_NOISE_BUDGET = 2**17
_MIN_CHUNK = 64
_MAX_CHUNK = 512
# Most paths and steps of a run (McConfig).  A terminal-only run holds 24 B
# a step (times, spacings and noise scales) and about 700 B a path (state,
# counters and one _MIN_CHUNK-step noise chunk): 100 MB and 700 MB at the bounds.
_MAX_PATHS = 10**6
_MAX_STEPS = 2**22


def _chunk_steps(columns: int, left: int) -> int:
    """Steps of the next noise chunk, of ``left`` still to run, when each
    step draws ``columns`` normals."""
    return min(left, _MAX_CHUNK, max(_MIN_CHUNK, _NOISE_BUDGET // max(columns, 1)))


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


def _check_boundary(boundary: Boundary) -> None:
    """Accept ``None``, :data:`STOP_ON_VIOLATION` or a :class:`Reflect`."""
    if not (boundary is None or isinstance(boundary, Reflect) or boundary == STOP_ON_VIOLATION):
        raise ValueError(f"unknown boundary mode {boundary!r}")


def _check_record(record: str, record_stride: int) -> None:
    """Accept ``"path"`` or ``"terminal"``, and a stride of at least one."""
    if record not in ("path", "terminal"):
        raise ValueError(f"unknown record mode {record!r}")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")


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

    A hit is declared when the path enters the band around the level from
    its starting side: ``x <= level + band`` when started above the level,
    ``x >= level - band`` when started below.  Censored paths (no hit by
    the horizon) count in the denominator of ``fraction_hit`` but not in
    the mean.
    """

    n_hit: int
    fraction_hit: float
    mean_hit_time: float | None
    ci95: float | None


@dataclass(frozen=True)
class McConfig:
    """Run spec: ``n_paths`` paths of ``horizon / dt`` steps, path ``i``
    seeded as path number ``stream + i`` of ``seed``.  Every function that
    takes one reads all four fields.  A run has at most ``_MAX_PATHS``
    paths and ``_MAX_STEPS`` steps, checked before anything is allocated."""

    n_paths: int
    dt: float
    horizon: float
    seed: SeedSpec

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_paths > _MAX_PATHS:
            raise ValueError(f"n_paths must be at most {_MAX_PATHS}, got {self.n_paths}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one step")
        steps = self.horizon / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"horizon {self.horizon} is not a whole number of "
                             f"dt={self.dt} steps")
        if round(steps) > _MAX_STEPS:
            raise ValueError(f"horizon {self.horizon} is {round(steps)} steps of "
                             f"dt={self.dt}; at most {_MAX_STEPS} are allowed")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class EnsembleSummary:
    terminal_mean: float
    terminal_var: float
    n_completed: int
    violations: int
    reflections: int
    histogram: tuple[np.ndarray, np.ndarray]  # (bin_edges, densities)


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
    that crossed (``v < lo`` or ``v > hi``).  Every other value, NaN
    included, comes back bit for bit, and ``v`` itself when none crossed.
    On a finite interval a crossing of 2^53 lengths or more, an infinite
    value included, leaves no position: it becomes NaN, with no index and
    no fold; every other crossing folds at least once, even one whose
    quotient ``(v - lo) / (hi - lo)`` underflows to -0.0."""
    if math.isinf(lo) or math.isinf(hi):
        out = v > hi if math.isinf(lo) else v < lo
        hits = out.nonzero()[0]
        if hits.size:
            v = np.where(out, 2 * (hi if math.isinf(lo) else lo) - v, v)
        return v, hits, 1
    hits = ((v < lo) | (v > hi)).nonzero()[0]
    if not hits.size:
        return v, hits, 1
    length, c = hi - lo, v[hits]
    with np.errstate(over="ignore", invalid="ignore"):  # the far crossings
        q = np.floor((c - lo) / length)
        q = np.where(c < lo, np.minimum(q, -1.0), np.maximum(q, 1.0))
        r = (c - lo) - q * length
        folded = np.where((q % 2) == 0, lo + r, hi - r)
    near = np.abs(q) < 2.0**53
    v = v.copy()
    v[hits] = np.where(near, folded, np.nan)
    return v, hits[near], np.abs(q[near]).astype(np.int64)


def _at_rest(f, g, rule: EvaluationRule, x0: float, times: np.ndarray,
             dts: np.ndarray) -> bool:
    """Whether every step from ``x0`` adds a zero to it: ``f`` and ``g``
    vanish exactly at every point and time a step evaluates them (a NaN
    is not a zero).  ``g`` at ``t0`` is tested first, so that a run that is
    not at rest pays one call.  ``x0 = -0.0`` is excluded, since ``-0.0 +
    0.0`` is ``+0.0``; so is a midpoint that overflows, whose projection
    could differ from ``x0``."""
    if x0 == 0 and math.copysign(1.0, x0) < 0:
        return False
    x = np.full(1, x0)
    mid = 0.5 * (x + x)
    if rule is EvaluationRule.MIDPOINT and mid[0] != x0:
        return False

    def zero(fn, at, t):
        return not np.any(np.asarray(fn(at, t), dtype=float) != 0)

    if not zero(g, x, times[0]):
        return False
    for k in range(dts.size):
        t_now = times[k]
        if not zero(f, x, t_now) or k and not zero(g, x, t_now):
            return False
        if rule is EvaluationRule.MIDPOINT and not zero(g, mid, t_now + 0.5 * dts[k]):
            return False
        if rule is EvaluationRule.RIGHT and not zero(g, x, times[k + 1]):
            return False
    return True


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

    def columns(self, ids: np.ndarray) -> int:
        """Normals a step draws: none, the increments are given."""
        return 0

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
    x0 = float(model.x0)
    _check_boundary(boundary)
    _check_record(record, record_stride)
    if isinstance(boundary, Reflect):
        if boundary.lo < lo - _DOMAIN_TOL or boundary.hi > hi + _DOMAIN_TOL:
            raise ValueError("reflection interval must lie inside the model domain")
        if not boundary.lo <= x0 <= boundary.hi:
            raise ValueError(f"x0={x0} outside the reflection interval "
                             f"[{boundary.lo}, {boundary.hi}]")

    n_steps = times.size - 1
    dts = np.diff(times)
    seeded = isinstance(noise, SeedSpec)
    if seeded:
        noise, scale = PathNoise(noise, n_paths), np.sqrt(dts)
    else:  # 1.0 * dw is dw bit for bit
        noise, scale = _GivenNoise(noise, n_paths, n_steps), np.ones(n_steps)
    raw = _Raw(n_paths, x0, n_steps)
    events = raw.events = [[] for _ in range(n_paths)] if record == "path" else None

    if record == "path":
        # row r holds step r * record_stride, and the last row the final step
        rec_steps = np.arange(0, n_steps + 1, record_stride, dtype=np.int64)
        if rec_steps[-1] != n_steps:
            rec_steps = np.append(rec_steps, n_steps)
        raw.recorded_steps = rec_steps
        # NaN marks the rows after every path's final step, which no step writes
        raw.recorded = np.full((rec_steps.size, n_paths), np.nan)
        raw.recorded[0] = x0

    x = np.full(n_paths, x0)
    ids = np.arange(n_paths)

    def _entered(v):
        """Whether ``v`` is in the hit band, seen from the paths' starting side."""
        return v <= hit_level + hit_band if x0 >= hit_level else v >= hit_level - hit_band

    if hit_level is not None and _entered(x0):
        raw.hit_time[:] = times[0]
        raw.final_step[:] = 0
        ids = ids[:0]
    elif seeded and _at_rest(f, g, rule, x0, times, dts):
        # each step would add a zero to x0 (module docstring); a given
        # increment is excluded, since 0 * inf is NaN
        ids = ids[:0]
        if raw.recorded is not None:
            raw.recorded[:] = x0

    def _log(kind, rows, t, values):
        """One event of ``kind`` at ``t`` for each live row in ``rows``."""
        if events is not None:
            for j in rows:
                events[ids[j]].append(Event(kind, t, float(values[j])))

    def _project(values, t_now):
        """Boundary policy for the live rows: safe values, and the rows to
        stop (None when there are none)."""
        if isinstance(boundary, Reflect):
            folded, hits, folds = _fold_into(values, boundary.lo, boundary.hi)
            if hits.size:
                raw.reflections[ids[hits]] += folds
                _log(EventKind.REFLECTION, hits, t_now, folded)
            return folded.clip(lo, hi), None
        below = values < lo - _DOMAIN_TOL  # on a half-line, the only test
        bad = (below if math.isinf(hi) else below | (values > hi + _DOMAIN_TOL)).nonzero()[0]
        if bad.size:
            raw.violations[ids[bad]] += 1
            _log(EventKind.DOMAIN_VIOLATION, bad, t_now, values)
        stop = bad if bad.size and boundary == STOP_ON_VIOLATION else None
        return values.clip(lo, hi), stop

    # without reflection an unbounded domain has nothing to clamp or stop
    free = not isinstance(boundary, Reflect) and math.isinf(lo) and math.isinf(hi)

    def _end(rows, final, value, fatal):
        """End the live ``rows`` at step ``final``: ``value`` becomes their
        state and terminal.  A first hit passes ``fatal=None``; a fatal end
        passes the offending values, clears ``completed``, and counts the
        rows whose offending value entered the band as hits.  Returns the
        mask of the live rows that go on."""
        dead = ids[rows]
        x[dead] = raw.terminal[dead] = value
        raw.moved[dead] = mv[rows] | (value != x0)
        raw.final_step[dead] = final
        if fatal is not None:
            raw.completed[dead] = False
        if hit_level is not None:
            raw.hit_time[dead if fatal is None else dead[_entered(fatal)]] = t_next
        keep = np.ones(ids.size, dtype=bool)
        keep[rows] = False
        return keep

    stride = noise.stride
    step = 0
    while step < n_steps and ids.size:
        width = _chunk_steps(noise.columns(ids), n_steps - step)
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
                    keep = _end(stop, k, xa[stop], point[stop])
                    ids, xa, mv, at, base, dw, point_safe = (
                        a[keep] for a in (ids, xa, mv, at, base, dw, point_safe))
                    if ids.size == 0:
                        break
                prop = base + np.asarray(g(point_safe, t_eval), dtype=float) * dw

            xa, stop = (prop, None) if free else _project(prop, t_next)
            if stop is not None:
                keep = _end(stop, k + 1, prop[stop], prop[stop])
                ids, xa, mv, at = (a[keep] for a in (ids, xa, mv, at))
            mv |= xa != x0

            if hit_level is not None:  # a live path has not hit yet
                new = _entered(xa).nonzero()[0]
                if new.size:
                    _log(EventKind.HIT_LEVEL, new, t_next, xa)
                    keep = _end(new, k + 1, xa[new], None)
                    ids, xa, mv, at = (a[keep] for a in (ids, xa, mv, at))

            if raw.recorded is not None and ((k + 1) % record_stride == 0 or k + 1 == n_steps):
                x[ids] = xa
                raw.recorded[-1 if k + 1 == n_steps else (k + 1) // record_stride] = x
            if ids.size == 0:
                break

        x[ids] = xa
        raw.moved[ids] = mv
        step += width
        del tiles  # frees this chunk's noise before the next chunk draws

    finished = raw.completed & (raw.final_step == n_steps)
    raw.terminal[finished] = x[finished]
    return raw


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


def _summarize(raw) -> EnsembleSummary:
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
        terminal_mean=mean,
        terminal_var=var,
        n_completed=int(raw.completed.sum()),
        violations=int(raw.violations.sum()),
        reflections=int(raw.reflections.sum()),
        histogram=(edges, hist),
    )


def simulate_ensemble(
    model: SdeModel,
    scheme: SolverScheme,
    cfg: McConfig,
    boundary: Boundary = None,
    record: str = "path",
    record_stride: int = 1,
) -> EnsembleResult:
    """Independent paths numbered ``stream + i`` of ``cfg.seed``.

    ``record`` chooses what each path keeps: ``"path"`` stores values every
    ``record_stride`` steps, ``"terminal"`` keeps only endpoints (use this
    for large ensembles).  Domain violations and reflections are events of
    their path and never abort the ensemble; the summary is a pure function
    of ``(model, scheme, cfg, boundary)`` regardless of execution
    interleaving and of what is recorded.  A path
    that diverges to a non-finite value is not an event: with
    ``record="terminal"`` its terminal is non-finite (and so is the
    summary's mean), and with ``record="path"`` the run raises
    :class:`NumericError` naming the first such path, because a
    :class:`SamplePath` cannot hold it.
    """
    times = cfg.times()
    raw = _run_engine(
        model, scheme, times, cfg.n_paths, cfg.seed, boundary,
        record=record, record_stride=record_stride,
    )
    results = None
    if record == "path":
        results = tuple(_path_result(raw, times, i) for i in range(cfg.n_paths))
    return EnsembleResult(results, _summarize(raw),
                          raw.terminal[raw.completed].copy())


def hitting_time(
    model: SdeModel,
    scheme: SolverScheme,
    level: float,
    band: float,
    cfg: McConfig,
    boundary: Boundary = None,
) -> HittingStats:
    """First-passage statistics of the band around ``level``.

    Paths freeze at their first hit (their noise is not used after it); a
    fatal domain violation whose value crossed the band also counts as a
    hit at that time.
    """
    if not band > 0:
        raise ValueError("band must be positive")
    times = cfg.times()
    raw = _run_engine(
        model, scheme, times, cfg.n_paths, cfg.seed, boundary,
        hit_level=level, hit_band=band,
    )
    return _hitting_stats(cfg.n_paths, raw.hit_time)


def _hitting_stats(n_paths, hit_time) -> HittingStats:
    hits = hit_time[~np.isnan(hit_time)]
    n_hit = int(hits.size)
    if n_hit:
        mean = float(hits.mean())
        sd = float(hits.std(ddof=1)) if n_hit > 1 else 0.0
        ci = 1.96 * sd / math.sqrt(n_hit)
    else:
        mean, ci = None, None
    return HittingStats(n_hit=n_hit, fraction_hit=n_hit / n_paths, mean_hit_time=mean, ci95=ci)


# --- exact oracles ----------------------------------------------------------


def _ou_coefficients(m: float, gamma: float, sigma: float, h):
    """Exact transition: mean decay factor and noise scale over a step."""
    decay = np.exp(-gamma * np.asarray(h, dtype=float) / m)
    scale = np.sqrt(sigma**2 / (2 * gamma * m) * (1.0 - decay**2))
    return decay, scale


def _check_langevin(m, gamma, sigma):
    if not (m > 0 and gamma > 0 and sigma > 0):
        raise ValueError("m, gamma, sigma must all be positive")


def _energy(m: float, v: np.ndarray) -> np.ndarray:
    """Kinetic energy ``m |v|^2 / 2`` over the last (component) axis."""
    return 0.5 * m * np.sum(v * v, axis=-1)


def _oracle_velocities(
    delta: int, m: float, gamma: float, sigma: float, v0s: Sequence[float],
    h, n_paths: int, seed: SeedSpec, level: float | None = None,
) -> np.ndarray:
    """Velocities ``(n_paths, len(h) + 1, delta)`` of oracle paths over the
    spacings ``h``, component ``c`` drawn from ``PathNoise(seed.child(ORACLE,
    c), n_paths)`` a chunk of :func:`_chunk_steps` steps a call.  With a
    ``level``, each path's first step of energy at most ``level`` instead
    (-1 for none)."""
    if delta not in (1, 2) or len(v0s) != delta:
        raise ValueError("delta must be 1 or 2 and match len(v0s)")
    _check_langevin(m, gamma, sigma)
    decay, scale = _ou_coefficients(m, gamma, sigma, h)
    n_steps = decay.size
    noises = [PathNoise(seed.child(ORACLE, c), n_paths) for c in range(delta)]
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
        width = _chunk_steps(noises[0].columns(live) * delta, n_steps - step)
        z = np.empty((live.size, delta, width))
        for c, noise in enumerate(noises):
            tiles, at = noise.draw(live, width)
            z[:, c] = tiles[at[:, None] + noise.stride * np.arange(width)]
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

    Built from exact velocity transitions, one block stream per component
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
    grid ``[0, horizon]`` seeded ``seed.shifted(i)``.  The horizon must be
    positive and ``n_paths`` in ``[1, _MAX_PATHS]``, as for a run."""
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 1 <= n_paths <= _MAX_PATHS:
        raise ValueError(f"n_paths must be in [1, {_MAX_PATHS}], got {n_paths}")
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
    if not band > 0:
        raise ValueError("band must be positive")
    # every spacing is dt itself: np.diff of the grid would round differently
    hit_step = _oracle_velocities(delta, m, gamma, sigma, v0s, np.full(cfg.n_steps, cfg.dt),
                                  cfg.n_paths, cfg.seed, level=level + band)
    hit_time = np.where(hit_step >= 0, cfg.times()[hit_step], np.nan)
    return _hitting_stats(cfg.n_paths, hit_time)


def besq_time_change(t: float, m: float, gamma: float, sigma: float) -> float:
    """Clock mapping the kinetic SDE onto a squared Bessel process:
    ``s(t) = sigma^2 / (4 gamma) * (exp(2 gamma t / m) - 1)``."""
    _check_langevin(m, gamma, sigma)
    return sigma**2 / (4 * gamma) * math.expm1(2 * gamma * t / m)

