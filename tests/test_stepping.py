"""The shared stepping kernel against independent references.

The scalar loops below are the implementations that the vectorised
stepper replaced; with the arithmetic unchanged the results must be equal
bit for bit.
"""
import math

import numpy as np
import pytest

from conftest import euler_terminal_matrix, path_noise
from noisecalc.integrals import _euler_path_from_driver
from noisecalc.paths import SamplePath, SeedSpec, TimeGrid, generate_brownian, generate_brownian_vector
from noisecalc.physics import LangevinParams, langevin_velocity_pair
from noisecalc.sde import Interpretation, SdeModel, to_ito
from noisecalc.solvers import (STOP_ON_VIOLATION, EventKind, McConfig, SolverScheme, _run_engine,
                               scheme_for, simulate_ensemble)


def _model(tag):
    return SdeModel(
        f=lambda x, t: -np.asarray(x, dtype=float),
        g=lambda x, t: 1.0 + 0.25 * np.sin(np.asarray(x, dtype=float)),
        dgdx=lambda x, t: 0.25 * np.cos(np.asarray(x, dtype=float)),
        interpretation=tag,
        x0=0.3,
    )


def _scalar_euler_path(model, driver):
    ito = to_ito(model)
    t = driver.grid.points
    dw = driver.increments()
    dt = driver.grid.spacings
    x = np.empty(len(t))
    x[0] = ito.x0
    xi = ito.x0
    for j in range(dw.size):
        xi = xi + ito.f(xi, t[j]) * dt[j] + ito.g(xi, t[j]) * dw[j]
        x[j + 1] = xi
    return x


def _scalar_velocity_pair(params, grid, seed):
    drivers = generate_brownian_vector(grid, 2, seed)
    db = np.diff(drivers.values[:, 0])
    dw = np.diff(drivers.values[:, 1])
    dts = grid.spacings
    k = params.gamma / params.m
    s = params.sigma / params.m
    u = np.empty(len(grid))
    v = np.empty(len(grid))
    u[0], v[0] = params.u0, params.v0
    for j in range(grid.n_steps):
        u[j + 1] = u[j] - k * u[j] * dts[j] + s * db[j]
        v[j + 1] = v[j] - k * v[j] * dts[j] + s * dw[j]
    return u, v


@pytest.mark.parametrize("stream", range(10))
def test_euler_path_from_driver_matches_scalar_loop(stream):
    model = _model(Interpretation.HAENGGI_KLIMONTOVICH)
    driver = generate_brownian(TimeGrid.uniform(0.0, 1.0, 200), SeedSpec(61, stream))
    got = _euler_path_from_driver(model, driver).values
    assert np.array_equal(got, _scalar_euler_path(model, driver))


@pytest.mark.parametrize("stream", range(10))
def test_langevin_velocity_pair_matches_scalar_loop(stream):
    params = LangevinParams(m=1.7, gamma=0.6, sigma=1.3, v0=0.4, u0=-0.9)
    grid = TimeGrid.uniform(0.0, 2.0, 300)
    u, v, _, _ = langevin_velocity_pair(params, grid, SeedSpec(62, stream))
    ref_u, ref_v = _scalar_velocity_pair(params, grid, SeedSpec(62, stream))
    assert np.array_equal(u.values, ref_u)
    assert np.array_equal(v.values, ref_v)


@pytest.mark.parametrize("tag", list(Interpretation))
def test_engine_terminals_equal_plain_stepper(tag):
    # 1300 steps is not a multiple of the engine's 512-step draw chunk; a
    # dyadic dt makes sqrt(dt) the engine's per-step noise scale exactly
    n_paths, n_steps, dt = 12, 1300, 2.0**-10
    model = _model(tag)
    scheme = scheme_for(tag)
    cfg = McConfig(n_paths=n_paths, dt=dt, horizon=n_steps * dt, seed=SeedSpec(63, 4))
    engine = simulate_ensemble(model, scheme, cfg, record="terminal").terminals
    # the same run stepped over the increments it draws, given as a matrix
    dw = math.sqrt(dt) * path_noise(cfg.seed, n_paths, n_steps).T
    given = _run_engine(model, scheme, cfg.times(), n_paths, dw, None).terminal
    assert np.array_equal(engine, given)


def test_left_stepper_equals_euler_reference():
    # dyadic dt: the reference's k * dt and the stepper's diff(times) agree
    n_steps, dt = 64, 2.0**-6
    model = _model(Interpretation.ITO)
    dw = SeedSpec(64).generator().standard_normal((10, n_steps)) * math.sqrt(dt)
    got = _run_engine(model, SolverScheme.DIRECT_LEFT, np.arange(n_steps + 1) * dt, 10, dw,
                      None).terminal
    ref = euler_terminal_matrix(model.f, model.g, model.x0, dt, dw)
    assert np.array_equal(got, ref[:, -1])


def _half_line_hk(x0=1.0):
    return SdeModel(f=lambda x, t: np.full_like(np.asarray(x, dtype=float), -0.4),
                    g=lambda x, t: 0.3 + 0.2 * np.asarray(x, dtype=float),
                    interpretation=Interpretation.HAENGGI_KLIMONTOVICH, x0=x0,
                    domain=(0.0, math.inf))


def test_given_increments_equal_seeded_run_with_stops():
    # paths stop on the half-line's edge before and after the 512-step
    # chunk edge; every field of the two runs agrees bit for bit
    n_paths, n_steps, dt = 40, 1300, 2.0**-9
    model, scheme = _half_line_hk(), SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR
    times, seed = np.arange(n_steps + 1) * dt, SeedSpec(65, 3)
    seeded = _run_engine(model, scheme, times, n_paths, seed, STOP_ON_VIOLATION, record="path")
    dw = math.sqrt(dt) * path_noise(seed, n_paths, n_steps).T
    given = _run_engine(model, scheme, times, n_paths, dw, STOP_ON_VIOLATION, record="path")
    stopped = seeded.final_step[~seeded.completed]
    assert seeded.completed.any() and (stopped < 512).any() and (stopped > 512).any()
    for name in ("terminal", "completed", "final_step", "violations", "moved",
                 "recorded_steps"):
        assert np.array_equal(getattr(given, name), getattr(seeded, name)), name
    assert np.array_equal(given.recorded, seeded.recorded, equal_nan=True)
    assert given.events == seeded.events


@pytest.mark.parametrize("shape", [(3, 99), (100, 3), (3, 101), (300,)])
def test_given_increments_of_the_wrong_shape_raise(shape):
    times = np.arange(101) * 0.01
    with pytest.raises(ValueError, match="shape"):
        _run_engine(_half_line_hk(), SolverScheme.EULER_MARUYAMA_ITO_FORM, times, 3,
                    np.zeros(shape), None)


def test_given_increments_on_a_half_line_are_clamped_and_flagged():
    # the domain policy holds for given increments as for seeded runs
    n_steps, dt = 200, 2.0**-7
    dw = SeedSpec(66).generator().standard_normal((5, n_steps)) * math.sqrt(dt)
    raw = _run_engine(_half_line_hk(0.2), SolverScheme.EULER_MARUYAMA_ITO_FORM,
                      np.arange(n_steps + 1) * dt, 5, dw, None, record="path")
    assert raw.completed.all() and raw.violations.sum() > 0
    assert raw.recorded.min() == 0.0
    assert any(e.kind is EventKind.DOMAIN_VIOLATION for evs in raw.events for e in evs)
    driver = SamplePath(TimeGrid(np.arange(n_steps + 1) * dt),
                        np.concatenate([[0.0], np.cumsum(dw[0])]))
    assert _euler_path_from_driver(_half_line_hk(0.2), driver).values.min() >= 0.0


def test_one_rule_vocabulary():
    import noisecalc.integrals
    import noisecalc.sde
    from noisecalc.sde import EvaluationRule

    assert noisecalc.integrals.EvaluationRule is noisecalc.sde.EvaluationRule
    assert [i.rule for i in Interpretation] == list(EvaluationRule)
    assert [i.ito_drift_offset for i in Interpretation] == [0.0, 0.5, 1.0]
