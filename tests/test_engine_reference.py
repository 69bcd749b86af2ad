"""The ensemble engine against a frozen copy of its earlier step loop.

``_reference_engine`` below is the engine as it stood before full-width
stepping: it gathers every live row each step, projects every value
through the boundary policy (also on an unbounded domain without one) and
writes the state back each step.  The engine must reproduce it bit for
bit: every field of its result, events included, for each boundary
policy, both fatal-stop sites and a ``hit_level`` freeze.
"""
import math
import struct

import numpy as np
import pytest

from noisecalc import expr as xp
from noisecalc.paths import BLOCK, PathNoise, SeedSpec
from noisecalc.physics import LangevinParams, kinetic_models
from noisecalc.sde import EvaluationRule, Interpretation, SdeModel
from noisecalc import solvers
from noisecalc.solvers import (STOP_ON_VIOLATION, Event, EventKind, Reflect, SolverScheme,
                               _effective, _Raw, _run_engine)

_DOMAIN_TOL = 1e-12
_CHUNK = 512
N_STEPS = 1300  # three 512-step chunks, the last one partial


def _predict(f, g, x, t, dt, dw):
    drift = np.asarray(f(x, t), dtype=float)
    return drift, x + drift * dt + np.asarray(g(x, t), dtype=float) * dw


def _corrector_point(rule, x, pred, t_now, t_next, dt):
    if rule is EvaluationRule.MIDPOINT:
        return 0.5 * (x + pred), t_now + 0.5 * dt
    return pred, t_next


def _fold_into(v, lo, hi):
    if math.isinf(hi) and math.isinf(lo):
        return v, np.zeros(v.size, dtype=np.int64)
    if math.isinf(hi):
        folds = (v < lo).astype(np.int64)
        return np.where(v < lo, 2 * lo - v, v), folds
    if math.isinf(lo):
        folds = (v > hi).astype(np.int64)
        return np.where(v > hi, 2 * hi - v, v), folds
    # only a value outside [lo, hi] folds; one 2^53 lengths or more out is NaN
    length = hi - lo
    out = (v < lo) | (v > hi)
    pos, folds = v.copy(), np.zeros(v.size, dtype=np.int64)
    with np.errstate(all="ignore"):
        q = np.floor((v[out] - lo) / length)
        r = (v[out] - lo) - q * length
        near = np.abs(q) < 2.0**53
        pos[out] = np.where(near, np.where((q % 2) == 0, lo + r, hi - r), np.nan)
        folds[out] = np.where(near, np.abs(q), 0).astype(np.int64)
    return pos, folds


def _mark_crossing_hits(raw, ids, values, t, level, band, hit_down):
    cond = (values <= level + band) if hit_down else (values >= level - band)
    sel = cond & np.isnan(raw.hit_time[ids])
    raw.hit_time[ids[sel]] = t


def _reference_engine(model, scheme, times, n_paths, seed, boundary, *, record="terminal",
                      record_stride=1, hit_level=None, hit_band=0.0):
    f, g, rule = _effective(model, scheme)
    lo, hi = model.domain
    n_steps = times.size - 1
    dts = np.diff(times)
    sqdt = np.sqrt(dts)
    x0 = float(model.x0)
    raw = _Raw(n_paths, x0, n_steps)
    if record == "path":
        raw.events = [[] for _ in range(n_paths)]

    rec_lookup = {}
    if record == "path":
        rec_steps = list(range(0, n_steps + 1, record_stride))
        if rec_steps[-1] != n_steps:
            rec_steps.append(n_steps)
        raw.recorded_steps = np.asarray(rec_steps, dtype=np.int64)
        raw.recorded = np.empty((len(rec_steps), n_paths))
        raw.recorded[0] = x0
        rec_lookup = {s: r for r, s in enumerate(rec_steps) if s > 0}

    x = np.full(n_paths, x0)
    running = np.ones(n_paths, dtype=bool)

    hit_down = True
    if hit_level is not None:
        hit_down = x0 >= hit_level
        in_band = x0 <= hit_level + hit_band if hit_down else x0 >= hit_level - hit_band
        if in_band:
            raw.hit_time[:] = times[0]
            raw.final_step[:] = 0
            running[:] = False

    noise = PathNoise(seed, n_paths)

    def _log(i, kind_, t, v):
        if raw.events is not None:
            raw.events[i].append(Event(kind_, t, v))

    def _project(values, ids, t_now):
        fatal = np.zeros(values.size, dtype=bool)
        if isinstance(boundary, Reflect):
            folded, folds = _fold_into(values, boundary.lo, boundary.hi)
            hits = np.flatnonzero(folds > 0)
            if hits.size:
                raw.reflections[ids[hits]] += folds[hits]
                for j in hits:
                    _log(ids[j], EventKind.REFLECTION, t_now, float(folded[j]))
            return np.clip(folded, lo, hi), fatal
        beyond = (values < lo - _DOMAIN_TOL) | (values > hi + _DOMAIN_TOL)
        bad = np.flatnonzero(beyond)
        if bad.size:
            raw.violations[ids[bad]] += 1
            for j in bad:
                _log(ids[j], EventKind.DOMAIN_VIOLATION, t_now, float(values[j]))
            if boundary == STOP_ON_VIOLATION:
                fatal = beyond
        return np.clip(values, lo, hi), fatal

    step = 0
    while step < n_steps:
        act_idx = np.flatnonzero(running)
        if act_idx.size == 0:
            break
        width = min(_CHUNK, n_steps - step)
        tiles, at = noise.draw(act_idx, width)
        alive = np.ones(act_idx.size, dtype=bool)

        for c in range(width):
            rows = np.flatnonzero(alive)
            if rows.size == 0:
                break
            k = step + c
            t_now, t_next, dt = times[k], times[k + 1], dts[k]
            ids = act_idx[rows]
            dw = sqdt[k] * tiles[at[rows] + c * BLOCK]
            xa = x[ids]
            drift, prop = _predict(f, g, xa, t_now, dt, dw)

            if rule is not EvaluationRule.LEFT:
                point, t_eval = _corrector_point(rule, xa, prop, t_now, t_next, dt)
                point_safe, fatal = _project(point, ids, t_next)
                if fatal.any():
                    sel = np.flatnonzero(fatal)
                    dead = ids[sel]
                    raw.completed[dead] = False
                    raw.final_step[dead] = k
                    raw.terminal[dead] = x[dead]
                    if hit_level is not None:
                        _mark_crossing_hits(raw, dead, point[sel], t_next,
                                            hit_level, hit_band, hit_down)
                    alive[rows[sel]] = False
                    keep = ~fatal
                    rows, ids = rows[keep], ids[keep]
                    xa, drift, dw = xa[keep], drift[keep], dw[keep]
                    point_safe = point_safe[keep]
                    if ids.size == 0:
                        continue
                g_eval = np.asarray(g(point_safe, t_eval), dtype=float)
                prop = xa + drift * dt + g_eval * dw

            prop_safe, fatal = _project(prop, ids, t_next)
            if fatal.any():
                sel = np.flatnonzero(fatal)
                dead = ids[sel]
                x[dead] = prop[sel]
                raw.completed[dead] = False
                raw.final_step[dead] = k + 1
                raw.terminal[dead] = prop[sel]
                raw.moved[dead] |= prop[sel] != x0
                if hit_level is not None:
                    _mark_crossing_hits(raw, dead, prop[sel], t_next,
                                        hit_level, hit_band, hit_down)
                alive[rows[sel]] = False
                keep = ~fatal
                rows, ids = rows[keep], ids[keep]
                prop_safe = prop_safe[keep]

            if ids.size:
                x[ids] = prop_safe
                raw.moved[ids] |= prop_safe != x0

                if hit_level is not None:
                    fresh = np.isnan(raw.hit_time[ids])
                    entered = (prop_safe <= hit_level + hit_band) if hit_down \
                        else (prop_safe >= hit_level - hit_band)
                    new = np.flatnonzero(fresh & entered)
                    if new.size:
                        just_hit = ids[new]
                        raw.hit_time[just_hit] = t_next
                        for j, i in enumerate(just_hit):
                            _log(i, EventKind.HIT_LEVEL, t_next, float(prop_safe[new][j]))
                        raw.terminal[just_hit] = prop_safe[new]
                        raw.final_step[just_hit] = k + 1
                        alive[rows[new]] = False

            if raw.recorded is not None and (k + 1) in rec_lookup:
                raw.recorded[rec_lookup[k + 1]] = x

        running[act_idx] = alive
        step += width
        del tiles

    finished = raw.completed & (raw.final_step == n_steps)
    raw.terminal[finished] = x[finished]
    return raw


# --- models -----------------------------------------------------------------


def _well(x0=0.1, interpretation=Interpretation.HAENGGI_KLIMONTOVICH,
          domain=(-math.inf, math.inf)):
    """The double well ``f = x - x^3``, ``g = 0.5 + 0.1 x^2``, through the
    expression layer as a custom CLI model builds it."""
    g = xp.parse("0.5 + 0.1*x^2")
    return SdeModel(f=xp.vector_fn(xp.parse("x - x^3")), g=xp.vector_fn(g),
                    dgdx=xp.vector_fn(xp.derivative(g)), interpretation=interpretation,
                    x0=x0, domain=domain)


def _kinetic(interpretation, **params):
    trio = kinetic_models(LangevinParams(**params))
    return dict(zip(Interpretation, trio.members()))[interpretation]


ITO, STRAT, HK = (Interpretation.ITO, Interpretation.STRATONOVICH,
                  Interpretation.HAENGGI_KLIMONTOVICH)
LEFT, MIDPOINT, RIGHT, EULER = (SolverScheme.DIRECT_LEFT, SolverScheme.DIRECT_MIDPOINT_HEUN,
                                SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR,
                                SolverScheme.EULER_MARUYAMA_ITO_FORM)
DT = 2.0**-8
# name: (model, scheme, seed, boundary, engine options).  Each run has 70
# paths; a stream offset of 60 puts them on both sides of a 64-path block.
CASES = {
    "unbounded-right": (lambda: _well(), RIGHT, SeedSpec(3, 60), None,
                        dict(record="path", record_stride=7)),
    "unbounded-euler": (lambda: _well(), EULER, SeedSpec(3, 60), None, {}),
    "half-line-reflect-midpoint": (lambda: _kinetic(STRAT, v0=0.3), MIDPOINT, SeedSpec(4, 60),
                                   Reflect(0.0), dict(record="path", record_stride=5)),
    "two-sided-reflect": (lambda: _well(0.0), RIGHT, SeedSpec(5, 60), Reflect(-0.3, 0.4),
                          dict(record="path", record_stride=3)),
    "stop-at-rest": (lambda: _kinetic(HK, v0=0.0), RIGHT, SeedSpec(6, 60), STOP_ON_VIOLATION,
                     dict(record="path")),
    "stop-right": (lambda: _well(0.0, HK, (-1.1, 1.1)), RIGHT, SeedSpec(7, 60),
                   STOP_ON_VIOLATION, dict(record="path", record_stride=4)),
    "stop-left": (lambda: _well(0.0, ITO, (-1.1, 1.1)), LEFT, SeedSpec(7, 60),
                  STOP_ON_VIOLATION, dict(record="path")),
    "hit-level": (lambda: _well(0.0), RIGHT, SeedSpec(9, 60), None,
                  dict(hit_level=0.9, hit_band=0.05)),
    "hit-level-events": (lambda: _well(0.0, ITO), LEFT, SeedSpec(9, 60), Reflect(-0.5),
                         dict(record="path", hit_level=-0.3, hit_band=0.02)),
    "hit-level-stop": (lambda: _kinetic(HK, v0=0.5), RIGHT, SeedSpec(7, 60), STOP_ON_VIOLATION,
                       dict(hit_level=0.01, hit_band=0.001)),
    "in-band-at-start": (lambda: _well(0.0, ITO), LEFT, SeedSpec(1), None,
                         dict(record="path", hit_level=0.0, hit_band=0.1)),
}
N_PATHS = 70


def _run(engine, case):
    make, scheme, seed, boundary, opts = CASES[case]
    times = np.arange(N_STEPS + 1) * DT
    return engine(make(), scheme, times, N_PATHS, seed, boundary, **opts)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _assert_same_array(name, a, b):
    if a is None or b is None:
        assert a is None and b is None, name
        return
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
    if a.dtype.kind == "f":
        assert np.array_equal(np.signbit(a), np.signbit(b)), f"{name}: sign bits"


def _assert_same_raw(got, want):
    for name in ("terminal", "completed", "final_step", "violations", "reflections", "moved",
                 "hit_time", "recorded_steps"):
        _assert_same_array(name, getattr(got, name), getattr(want, name))
    if want.recorded is None:
        assert got.recorded is None and got.events is None and want.events is None
        return
    # rows after the last path's final step are never written (np.empty)
    rows = want.recorded_steps <= want.final_step.max()
    _assert_same_array("recorded", got.recorded[rows], want.recorded[rows])
    assert len(got.events) == len(want.events)
    for i, (a, b) in enumerate(zip(got.events, want.events)):
        assert [(e.kind, _bits(e.time), _bits(e.value)) for e in a] == \
            [(e.kind, _bits(e.time), _bits(e.value)) for e in b], f"events of path {i}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_equals_reference_loop_bitwise(case):
    _assert_same_raw(_run(_run_engine, case), _run(_reference_engine, case))


@pytest.mark.parametrize("budget, floor", [(37 * 3 * BLOCK, 1), (0, 37)],
                         ids=["budget-binds", "floor-binds"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_equals_reference_loop_in_narrow_chunks(monkeypatch, case, budget, floor):
    """The engine in chunks of 37 steps (with a budget of 37 steps of three
    blocks, the chunks widen as blocks stop) against the reference in
    512-step chunks: the chunking moves no bit."""
    monkeypatch.setattr(solvers, "_NOISE_BUDGET", budget)
    monkeypatch.setattr(solvers, "_MIN_CHUNK", floor)
    widths = []
    real = PathNoise.draw

    def spy(self, ids, width):
        widths.append(width)
        return real(self, ids, width)

    with monkeypatch.context() as m:
        m.setattr(PathNoise, "draw", spy)
        got = _run(_run_engine, case)
    assert not widths or widths[0] == 37
    _assert_same_raw(got, _run(_reference_engine, case))


def test_reference_cases_reach_every_branch():
    """The corpus is not vacuous: each case shows what it is named for."""
    def run(case):
        return _run(_reference_engine, case)

    def stopped_mid_chunk(raw):
        return np.any((raw.final_step < N_STEPS) & (raw.final_step % _CHUNK != 0))

    def events(raw, kind):
        return sum(ev.kind is kind for evs in raw.events for ev in evs)

    for case in ("unbounded-right", "unbounded-euler"):
        assert run(case).completed.all()
    for case in ("half-line-reflect-midpoint", "two-sided-reflect"):
        raw = run(case)
        assert raw.reflections.sum() > 0 and events(raw, EventKind.REFLECTION) > 0, case
    assert run("two-sided-reflect").reflections.max() > 1  # a multi-fold step
    # a fatal corrector point stops a path where it stood (inside the
    # domain); a fatal proposal stores the offending value
    rest = run("stop-at-rest")
    assert not rest.completed.any() and np.all(rest.final_step == 0)
    right = run("stop-right")
    stopped = ~right.completed
    inside = np.abs(right.terminal) <= 1.1
    assert np.any(stopped & inside) and np.any(stopped & ~inside)
    for case in ("stop-right", "stop-left"):
        raw = run(case)
        assert raw.completed.any() and stopped_mid_chunk(raw), case
        assert events(raw, EventKind.DOMAIN_VIOLATION) > 0, case
    for case in ("hit-level", "hit-level-events", "hit-level-stop"):
        raw = run(case)
        assert stopped_mid_chunk(raw) and not np.isnan(raw.hit_time).all(), case
    assert events(run("hit-level-events"), EventKind.HIT_LEVEL) > 0
    # violations through the band count as hits
    stop = run("hit-level-stop")
    assert np.any(~stop.completed & ~np.isnan(stop.hit_time))
