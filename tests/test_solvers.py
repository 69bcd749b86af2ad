import math

import numpy as np
import pytest

from conftest import ks_statistic, path_noise
from test_streams import opened  # noqa: F401  (fixture)
from noisecalc.paths import ORACLE, SamplePath, SeedSpec, TimeGrid, generate_brownian
from noisecalc import integrals
from noisecalc.integrals import StepProcess, backward_regularized, strong_convergence_order
from noisecalc.sde import Interpretation, SdeModel, to_ito
from noisecalc.solvers import (
    EventKind,
    McConfig,
    NumericError,
    Reflect,
    STOP_ON_VIOLATION,
    SolverScheme,
    besq_time_change,
    exact_kinetic_oracle,
    exact_kinetic_terminal,
    exact_ou_path,
    hitting_time,
    kinetic_oracle_hitting,
    scheme_for,
    simulate_ensemble,
    simulate_path,
    _MAX_PATHS,
    _MAX_STEPS,
    _fold_into,
    _ou_coefficients,
    _run_engine,
)
from noisecalc.physics import LangevinParams, RelativisticParams, kinetic_models


def _smooth_model(tag=Interpretation.ITO, x0=0.3):
    return SdeModel(
        f=lambda x, t: -np.asarray(x, dtype=float),
        g=lambda x, t: 1.0 + 0.25 * np.sin(np.asarray(x, dtype=float)),
        dgdx=lambda x, t: 0.25 * np.cos(np.asarray(x, dtype=float)),
        interpretation=tag,
        x0=x0,
    )


def test_scheme_interpretation_mismatch_rejected():
    m = _smooth_model(Interpretation.ITO)
    with pytest.raises(ValueError):
        simulate_path(m, SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR,
                      TimeGrid.uniform(0, 1, 10), SeedSpec(1))


def test_direct_left_equals_em_on_ito_model():
    m = _smooth_model(Interpretation.ITO)
    grid = TimeGrid.uniform(0.0, 1.0, 200)
    a = simulate_path(m, SolverScheme.DIRECT_LEFT, grid, SeedSpec(3, 1))
    b = simulate_path(m, SolverScheme.EULER_MARUYAMA_ITO_FORM, grid, SeedSpec(3, 1))
    assert np.array_equal(a.path.values, b.path.values)


def test_ito_kinetic_first_step_from_rest_is_deterministic():
    trio = kinetic_models(LangevinParams(v0=0.0))
    dt = 1e-3
    res = simulate_path(trio.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM,
                        TimeGrid([0.0, dt]), SeedSpec(9))
    # g(0) = 0 kills the noise: K_1 = sigma^2 dt / (2 m) exactly
    assert res.path.values[1] == pytest.approx(0.5 * dt, rel=1e-12)
    assert res.path.values[1] > 0


def test_stratonovich_kinetic_stuck_at_rest():
    trio = kinetic_models(LangevinParams(v0=0.0))
    grid = TimeGrid.uniform(0.0, 1.0, 500)
    res = simulate_path(trio.stratonovich, SolverScheme.DIRECT_MIDPOINT_HEUN,
                        grid, SeedSpec(10))
    assert np.all(res.path.values == 0.0)
    assert not res.terminated_early


def test_hk_kinetic_from_rest_violates_at_first_step():
    trio = kinetic_models(LangevinParams(v0=0.0))
    grid = TimeGrid.uniform(0.0, 1.0, 1000)
    violated = 0
    for s in range(1000):
        res = simulate_path(trio.hk, SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR,
                            grid, SeedSpec(11, s), boundary=STOP_ON_VIOLATION)
        if res.terminated_early:
            assert res.events[-1].kind is EventKind.DOMAIN_VIOLATION
            violated += 1
    assert violated >= 990


def test_ensemble_n1_reduces_to_simulate_path():
    m = _smooth_model()
    cfg = McConfig(n_paths=1, dt=0.01, horizon=1.0, seed=SeedSpec(21, 5))
    ens = simulate_ensemble(m, SolverScheme.DIRECT_LEFT, cfg)
    single = simulate_path(m, SolverScheme.DIRECT_LEFT,
                           TimeGrid.uniform(0.0, 1.0, 100), SeedSpec(21, 5))
    assert np.array_equal(ens.results[0].path.values, single.path.values)


def test_ensemble_order_independence():
    # the ensemble aggregate equals the per-path runs done one by one
    m = _smooth_model()
    cfg = McConfig(n_paths=16, dt=0.01, horizon=0.5, seed=SeedSpec(22))
    ens = simulate_ensemble(m, SolverScheme.DIRECT_LEFT, cfg)
    grid = TimeGrid.uniform(0.0, 0.5, 50)
    for i in (0, 7, 15):
        solo = simulate_path(m, SolverScheme.DIRECT_LEFT, grid, SeedSpec(22, i))
        assert np.array_equal(ens.results[i].path.values, solo.path.values)
    again = simulate_ensemble(m, SolverScheme.DIRECT_LEFT, cfg)
    assert ens.summary.terminal_mean == again.summary.terminal_mean
    assert ens.summary.violations == again.summary.violations
    assert ens.summary.reflections == again.summary.reflections


def test_ensemble_terminal_mean_matches_kinetic_oracle():
    trio = kinetic_models(LangevinParams(v0=1.0))
    n = 3000
    cfg = McConfig(n_paths=n, dt=1e-3, horizon=5.0, seed=SeedSpec(23))
    ens = simulate_ensemble(trio.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg,
                            Reflect(0.0), record="terminal")
    oracle = exact_kinetic_terminal(1, 1, 1, 1, [1.0], 5.0, n, SeedSpec(24))
    se = math.sqrt(ens.summary.terminal_var / n + oracle.var(ddof=1) / n)
    assert abs(ens.summary.terminal_mean - oracle.mean()) < 2 * se


def test_reflected_first_step_fold_arithmetic():
    # drift 0, g = 1, x0 = b: a positive first increment folds to b - dW
    b = 1.0
    m = SdeModel(f=lambda x, t: 0.0 * np.asarray(x, dtype=float),
                 g=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
                 interpretation=Interpretation.ITO, x0=b)
    seed = SeedSpec(31, 1)
    z = path_noise(seed, 1, 1)[0, 0]
    assert z > 0  # chosen stream; first draw is positive
    dt = 0.04
    cfg = McConfig(n_paths=1, dt=dt, horizon=dt, seed=seed)
    res = simulate_path(m, SolverScheme.DIRECT_LEFT, TimeGrid(cfg.times()), cfg.seed,
                        Reflect(-1.0, b))
    dw = math.sqrt(dt) * z
    assert res.path.values[1] == pytest.approx(b - dw, rel=1e-12)
    assert res.events[0].kind is EventKind.REFLECTION


def _fold_arithmetic(c, lo, hi):
    """The finite fold of one value that crossed [lo, hi], in scalars."""
    length = hi - lo
    q = math.floor((c - lo) / length)
    r = (c - lo) - q * length
    return (lo + r if q % 2 == 0 else hi - r), abs(q)


def test_a_finite_fold_moves_only_the_values_that_crossed():
    lo, hi = 0.1, 1.0
    inside = np.array([0.41, lo, hi, 0.7, np.nextafter(hi, 0.0), np.nan])
    with np.errstate(all="raise"):
        got, hits, folds = _fold_into(inside, lo, hi)
    assert got is inside and hits.size == 0
    crossed = [1.3, 2.75, -0.05, -3.2, np.nextafter(lo, 0.0), 5e15]
    far = [np.inf, -np.inf, 1e300, -1e300]
    v = np.array([*inside, *crossed, *far])
    with np.errstate(all="raise"):
        got, hits, folds = _fold_into(v, lo, hi)
    # values that did not cross come back bit for bit, NaN included
    assert got[:inside.size].tobytes() == inside.tobytes()
    # crossings fold and count as the fold's arithmetic does
    assert hits.tolist() == list(range(inside.size, inside.size + len(crossed)))
    want = [_fold_arithmetic(c, lo, hi) for c in crossed]
    assert got[hits].tolist() == [pos for pos, _ in want]
    assert np.broadcast_to(folds, hits.shape).tolist() == [n for _, n in want]
    # a crossing too far to fold has no position and counts no fold
    assert np.isnan(got[inside.size + len(crossed):]).all()


@pytest.mark.parametrize("hi", [2.0, 0.5])
def test_a_crossing_below_the_folds_resolution_folds_once(hi):
    # the smallest subnormal over a length of 2 underflows to -0.0; over 0.5 not
    v = np.array([-5e-324])
    got, hits, folds = _fold_into(v, 0.0, hi)
    assert got.tolist() == [0.0] and hits.tolist() == [0] and folds.tolist() == [1]


def test_reflection_count_monotone_in_noise_amplitude():
    counts = []
    for sigma in (0.5, 1.0, 2.0):
        m = SdeModel(f=lambda x, t: -np.asarray(x, dtype=float),
                     g=lambda x, t, s=sigma: np.full_like(np.asarray(x, dtype=float), s),
                     dgdx=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                     interpretation=Interpretation.ITO, x0=0.0)
        cfg = McConfig(n_paths=1, dt=0.01, horizon=50.0, seed=SeedSpec(32))
        res = simulate_path(m, SolverScheme.DIRECT_LEFT, TimeGrid(cfg.times()), cfg.seed,
                            Reflect(-1.0, 1.0))
        counts.append(sum(1 for e in res.events if e.kind is EventKind.REFLECTION))
    assert counts[0] < counts[1] < counts[2]


def test_reflected_requires_x0_inside():
    m = _smooth_model(x0=5.0)
    cfg = McConfig(n_paths=1, dt=0.01, horizon=1.0, seed=SeedSpec(33))
    with pytest.raises(ValueError):
        simulate_path(m, SolverScheme.DIRECT_LEFT, TimeGrid(cfg.times()), cfg.seed,
                      Reflect(-1.0, 1.0))


def test_every_run_rejects_a_start_outside_the_reflection_interval():
    m = _smooth_model(x0=5.0)
    cfg = McConfig(n_paths=4, dt=0.01, horizon=0.1, seed=SeedSpec(33))
    with pytest.raises(ValueError, match="x0=5.0 outside the reflection interval"):
        simulate_ensemble(m, SolverScheme.DIRECT_LEFT, cfg, Reflect(-1.0, 1.0))
    with pytest.raises(ValueError, match="x0=5.0 outside the reflection interval"):
        hitting_time(m, SolverScheme.DIRECT_LEFT, 0.0, 1e-3, cfg, Reflect(-1.0, 1.0))


def test_simulate_path_rejects_an_unknown_boundary_mode():
    # a misspelt policy must not run as flag-and-clamp
    with pytest.raises(ValueError, match="unknown boundary mode 'stop'"):
        simulate_path(_smooth_model(), SolverScheme.DIRECT_LEFT,
                      TimeGrid.uniform(0.0, 1.0, 10), SeedSpec(33), boundary="stop")


def test_hitting_level_above_start_with_negative_drift():
    m = SdeModel(f=lambda x, t: -np.ones_like(np.asarray(x, dtype=float)),
                 g=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                 interpretation=Interpretation.ITO, x0=0.0)
    cfg = McConfig(n_paths=50, dt=0.01, horizon=2.0, seed=SeedSpec(34))
    stats = hitting_time(m, SolverScheme.DIRECT_LEFT, 1.0, 1e-6, cfg)
    assert stats.fraction_hit == 0.0
    assert stats.mean_hit_time is None


def test_hitting_band_from_above():
    m = SdeModel(f=lambda x, t: -np.ones_like(np.asarray(x, dtype=float)),
                 g=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                 interpretation=Interpretation.ITO, x0=1.0)
    cfg = McConfig(n_paths=3, dt=0.01, horizon=2.0, seed=SeedSpec(35))
    stats = hitting_time(m, SolverScheme.DIRECT_LEFT, 0.0, 1e-4, cfg)
    assert stats.fraction_hit == 1.0
    # deterministic descent at unit speed reaches the band at t ~ 1
    assert stats.mean_hit_time == pytest.approx(1.0, abs=0.02)
    assert stats.ci95 == 0.0


def test_ou_transition_coefficients_at_zero_step():
    decay, scale = _ou_coefficients(1.0, 1.0, 1.0, 0.0)
    assert decay == 1.0 and scale == 0.0


def test_ou_conditional_mean_one_step():
    # v0 = 2, gamma = m = 1, h = ln 2: conditional mean is exactly 1
    grid = TimeGrid([0.0, math.log(2.0)])
    vals = np.array([
        exact_ou_path(1, 1, 1, 2.0, grid, SeedSpec(40, s)).values[1]
        for s in range(4000)
    ])
    sd = math.sqrt(0.5 * (1 - 0.25))
    assert vals.mean() == pytest.approx(1.0, abs=4 * sd / math.sqrt(4000))


def test_ou_stationary_variance():
    # m = gamma = sigma = 1: stationary variance 1/2, sampled at unit spacing
    grid = TimeGrid.uniform(0.0, 10_000.0, 10_000)
    v = exact_ou_path(1, 1, 1, 0.0, grid, SeedSpec(41)).values[1:]
    assert v.var(ddof=1) == pytest.approx(0.5, abs=0.02)


def test_kinetic_oracle_initial_value():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    k = exact_kinetic_oracle(2, 3.0, 1.0, 1.0, [1.0, 2.0], grid, SeedSpec(42))
    assert k.values[0] == pytest.approx(0.5 * 3.0 * 5.0)


def test_kinetic_oracle_delta1_hits_band():
    # single-particle energy reaches the origin band by T=20 in nearly
    # every run (grid spacing 1e-3)
    cfg = McConfig(n_paths=10_000, dt=1e-3, horizon=20.0, seed=SeedSpec(43))
    stats = kinetic_oracle_hitting(1, 1, 1, 1, [1.0], 0.0, 1e-4, cfg)
    assert stats.fraction_hit >= 0.95


def test_kinetic_oracle_delta2_minimum_stays_up():
    # two-particle energy: discrete minimum over [0, 20] at spacing 1e-2
    # exceeds 1e-6 for >= 99% of runs
    cfg = McConfig(n_paths=10_000, dt=1e-2, horizon=20.0, seed=SeedSpec(44))
    stats = kinetic_oracle_hitting(2, 1, 1, 1, [math.sqrt(0.5), math.sqrt(0.5)],
                                   0.0, 1e-6, cfg)
    assert stats.fraction_hit <= 0.01


def test_kinetic_oracle_hitting_matches_scalar_oracle_paths():
    for delta, v0s in ((1, [1.0]), (2, [0.3, 0.2])):
        cfg = McConfig(n_paths=4, dt=0.05, horizon=2.0, seed=SeedSpec(45, 3))
        stats = kinetic_oracle_hitting(delta, 1, 1, 1, v0s, 0.0, 0.05, cfg)
        grid = TimeGrid.uniform(0.0, 2.0, 40)
        manual = []
        for i in range(4):
            k = exact_kinetic_oracle(delta, 1, 1, 1, v0s, grid, SeedSpec(45, 3 + i))
            below = np.flatnonzero(k.values <= 0.05)
            manual.append(grid.points[below[0]] if below.size else None)
        hits = [t for t in manual if t is not None]
        assert stats.n_hit == len(hits)
        if hits:
            assert stats.mean_hit_time == pytest.approx(float(np.mean(hits)), rel=1e-12)


def test_oracle_draws_through_block_streams_apart_from_the_engine(opened):
    cfg = McConfig(n_paths=10_000, dt=0.01, horizon=0.5, seed=SeedSpec(53))
    kinetic_oracle_hitting(2, 1, 1, 1, [1.0, 0.0], 0.4, 0.01, cfg)
    oracle = set(opened)
    for c in range(2):  # one generator per 64-path block: ceil(10^4 / 64)
        assert sum(key[:2] == (ORACLE, c) for _, key in opened) == 157
    opened.clear()
    model = kinetic_models(LangevinParams(v0=1.0)).ito
    hitting_time(model, SolverScheme.EULER_MARUYAMA_ITO_FORM, 0.4, 0.01, cfg, Reflect(0.0))
    assert opened and oracle.isdisjoint(opened)


@pytest.mark.parametrize("delta, v0s", [(1, [0.7]), (2, [0.7, -0.4])])
def test_kinetic_terminal_is_the_oracle_path_end(delta, v0s):
    # one substream layout: terminal entry i is oracle path i over [0, T]
    seed, horizon = SeedSpec(52, 5, (3, 1)), 0.9
    terminal = exact_kinetic_terminal(delta, 1.5, 0.8, 1.2, v0s, horizon, 6, seed)
    for i in range(6):
        path = exact_kinetic_oracle(delta, 1.5, 0.8, 1.2, v0s, TimeGrid([0.0, horizon]),
                                    seed.shifted(i))
        assert terminal[i] == path.final_value


def test_besq_time_change_values():
    assert besq_time_change(0.0, 1, 1, 1) == 0.0
    assert besq_time_change(math.log(2.0), 1, 1, 1) == pytest.approx(0.75)
    ts = np.linspace(0.0, 3.0, 20)
    ss = [besq_time_change(float(t), 2.0, 0.7, 1.3) for t in ts]
    assert np.all(np.diff(ss) > 0)


def test_time_changed_besq_moments():
    # kinetic oracle at time t vs exp(-2 gamma t / m) * BESQ(s(t)) sampled
    # through an independent Brownian construction
    t_star, n = 0.8, 20_000
    k0 = 0.5
    k_oracle = exact_kinetic_terminal(1, 1, 1, 1, [1.0], t_star, n, SeedSpec(46))
    s = besq_time_change(t_star, 1, 1, 1)
    z = SeedSpec(47).generator().standard_normal(n)
    besq = (math.sqrt(k0) + math.sqrt(s) * z) ** 2  # dimension-1 squared bridge-free BM
    other = math.exp(-2 * t_star) * besq
    se_mean = math.sqrt(k_oracle.var(ddof=1) / n + other.var(ddof=1) / n)
    assert abs(k_oracle.mean() - other.mean()) < 2 * se_mean
    v1, v2 = k_oracle.var(ddof=1), other.var(ddof=1)

    def se2(x, v):
        """Squared SE of a sample variance, from the fourth central moment
        (the law's kurtosis is about 12, far from normal theory's 3)."""
        m4 = float(np.mean((x - x.mean()) ** 4))
        return (m4 - v * v * (n - 3) / (n - 1)) / n

    assert abs(v1 - v2) < 2 * math.sqrt(se2(k_oracle, v1) + se2(other, v2))


def test_em_terminal_distribution_vs_oracle_ks():
    # scheme-vs-law check at desk scale (the full-size run lives in the
    # acceptance suite): dt=1e-3, n=4000, T=1
    trio = kinetic_models(LangevinParams(v0=1.0))
    n = 4000
    cfg = McConfig(n_paths=n, dt=1e-3, horizon=1.0, seed=SeedSpec(48))
    ens = simulate_ensemble(trio.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg,
                            Reflect(0.0), record="terminal")
    oracle = exact_kinetic_terminal(1, 1, 1, 1, [1.0], 1.0, n, SeedSpec(49))
    assert ks_statistic(ens.terminals, oracle) < 0.06


def test_strong_order_zero_diffusion_is_first_order():
    m = SdeModel(f=lambda x, t: -np.asarray(x, dtype=float),
                 g=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                 dgdx=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                 interpretation=Interpretation.ITO, x0=1.0)
    cfg = McConfig(n_paths=64, dt=1 / 16, horizon=1.0, seed=SeedSpec(50))
    slope = strong_convergence_order(m, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg, 3)
    assert slope >= 0.9


def test_strong_order_requires_three_levels():
    m = _smooth_model()
    cfg = McConfig(n_paths=8, dt=1 / 4, horizon=1.0, seed=SeedSpec(51))
    with pytest.raises(ValueError):
        strong_convergence_order(m, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg, 2)


def test_strong_order_bounds_its_reference_grid_before_drawing(monkeypatch):
    class Drawn(Exception):
        pass

    def draw(grid, seed):
        raise Drawn

    monkeypatch.setattr(integrals, "generate_brownian", draw)
    m = _smooth_model()
    # 1024 steps x 2^19 halvings x 16 is 2^33 reference steps
    cfg = McConfig(n_paths=1, dt=1 / 1024, horizon=1.0, seed=SeedSpec(51))
    with pytest.raises(ValueError, match="reference grid"):
        strong_convergence_order(m, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg, 20)
    # 2^16 reference steps: 256 paths hold 2^24 increments, 257 paths more
    for n_paths, raised in ((256, Drawn), (257, ValueError)):
        cfg = McConfig(n_paths=n_paths, dt=1 / 1024, horizon=1.0, seed=SeedSpec(51))
        with pytest.raises(raised):
            strong_convergence_order(m, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg, 3)


def test_identical_stepping_gives_zero_error_against_itself():
    m = SdeModel(f=lambda x, t: -x, g=lambda x, t: 1.0 + 0.25 * np.sin(x),
                 interpretation=Interpretation.ITO, x0=0.5)
    dw = SeedSpec(52).generator().standard_normal((10, 64)) * math.sqrt(1 / 64)
    times = np.linspace(0.0, 1.0, 65)
    a = _run_engine(m, SolverScheme.DIRECT_LEFT, times, 10, dw, None).terminal
    b = _run_engine(m, SolverScheme.DIRECT_LEFT, times, 10, dw, None).terminal
    assert np.array_equal(a, b)


def test_boundary_none_flags_and_clamps():
    # relativistic-style floor: proposals below the domain are clamped to
    # the edge and flagged, never silently accepted
    m = SdeModel(f=lambda x, t: -np.ones_like(np.asarray(x, dtype=float)),
                 g=lambda x, t: 0.1 * np.ones_like(np.asarray(x, dtype=float)),
                 interpretation=Interpretation.ITO, x0=1.05,
                 domain=(1.0, math.inf))
    res = simulate_path(m, SolverScheme.DIRECT_LEFT,
                        TimeGrid.uniform(0.0, 1.0, 100), SeedSpec(53))
    assert np.min(res.path.values) >= 1.0 - 1e-12
    assert any(e.kind is EventKind.DOMAIN_VIOLATION for e in res.events)
    assert not res.terminated_early


def test_stop_on_violation_truncates_with_final_event():
    m = SdeModel(f=lambda x, t: -np.ones_like(np.asarray(x, dtype=float)),
                 g=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                 interpretation=Interpretation.ITO, x0=0.05,
                 domain=(0.0, math.inf))
    res = simulate_path(m, SolverScheme.DIRECT_LEFT,
                        TimeGrid.uniform(0.0, 1.0, 100), SeedSpec(54),
                        boundary=STOP_ON_VIOLATION)
    assert res.terminated_early
    assert res.events[-1].kind is EventKind.DOMAIN_VIOLATION
    assert len(res.path.values) < 101


def test_recorded_rows_after_every_final_step_are_nan():
    # the HK kinetic member at rest steps outward at once, so every path
    # stops on its first step and no later row is ever written
    hk = kinetic_models(LangevinParams(v0=0.0)).hk
    times = np.linspace(0.0, 0.1, 11)
    runs = [_run_engine(hk, SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR, times, 8,
                        SeedSpec(31), STOP_ON_VIOLATION, record="path")
            for _ in range(2)]
    raw = runs[0]
    last = int(raw.final_step.max())
    assert not raw.completed.any() and last < times.size - 1
    after = raw.recorded_steps > last
    assert after.any()
    assert np.isnan(raw.recorded[after]).all()
    assert not np.isnan(raw.recorded[~after]).any()
    assert np.array_equal(raw.recorded, runs[1].recorded, equal_nan=True)


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, dt=0.1, horizon=1.0, seed=SeedSpec(1))
    with pytest.raises(ValueError):
        McConfig(n_paths=1, dt=0.0, horizon=1.0, seed=SeedSpec(1))
    with pytest.raises(ValueError):
        McConfig(n_paths=1, dt=0.5, horizon=0.1, seed=SeedSpec(1))
    with pytest.raises(ValueError):
        simulate_ensemble(_smooth_model(), SolverScheme.DIRECT_LEFT,
                          McConfig(n_paths=1, dt=0.1, horizon=1.0, seed=SeedSpec(1)),
                          boundary="bogus")


@pytest.mark.parametrize("options, message", [
    (dict(record="paths"), "unknown record mode 'paths'"),
    (dict(record="terminal", record_stride=0), "record_stride must be >= 1"),
    (dict(record="path", record_stride=0), "record_stride must be >= 1"),
])
def test_engine_rejects_an_unknown_record_mode_or_stride(options, message):
    # a misspelt mode must not run as terminal
    times = np.linspace(0.0, 0.1, 11)
    with pytest.raises(ValueError, match=message):
        _run_engine(_smooth_model(), SolverScheme.DIRECT_LEFT, times, 2, SeedSpec(1), None,
                    **options)


def test_mcconfig_rejects_horizon_off_the_step_grid():
    with pytest.raises(ValueError, match="whole number"):
        McConfig(n_paths=1, dt=0.3, horizon=1.0, seed=SeedSpec(1))
    assert McConfig(n_paths=1, dt=1e-3, horizon=0.05, seed=SeedSpec(1)).n_steps == 50


def test_mcconfig_bounds_the_run_size_before_allocating():
    # only the fields are checked: a run at the bounds is built, not run
    assert McConfig(n_paths=_MAX_PATHS, dt=1.0, horizon=float(_MAX_STEPS),
                    seed=SeedSpec(1)).n_steps == _MAX_STEPS
    with pytest.raises(ValueError, match=f"n_paths must be at most {_MAX_PATHS}"):
        McConfig(n_paths=_MAX_PATHS + 1, dt=1.0, horizon=1.0, seed=SeedSpec(1))
    with pytest.raises(ValueError, match=f"at most {_MAX_STEPS} are allowed"):
        McConfig(n_paths=1, dt=1.0, horizon=float(_MAX_STEPS + 1), seed=SeedSpec(1))
    # the largest run of the acceptance criteria is accepted
    assert McConfig(n_paths=10_000, dt=1e-4, horizon=20.0, seed=SeedSpec(1)).n_steps == 200_000


_NAN = math.nan
_NAN_CFG = McConfig(n_paths=4, dt=0.1, horizon=1.0, seed=SeedSpec(1))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: hitting_time(_smooth_model(), SolverScheme.DIRECT_LEFT, 0.0, _NAN,
                                      _NAN_CFG), id="hitting_time-band"),
    pytest.param(lambda: kinetic_oracle_hitting(1, 1.0, 1.0, 1.0, [1.0], 0.0, _NAN, _NAN_CFG),
                 id="kinetic_oracle_hitting-band"),
    pytest.param(lambda: backward_regularized(
        StepProcess([0.0, 1.0], [1.0]),
        generate_brownian(TimeGrid.uniform(0.0, 1.0, 64), SeedSpec(14)), _NAN),
        id="backward_regularized-eps"),
    pytest.param(lambda: LangevinParams(m=_NAN), id="LangevinParams-m"),
    pytest.param(lambda: LangevinParams(gamma=_NAN), id="LangevinParams-gamma"),
    pytest.param(lambda: RelativisticParams(M=_NAN), id="RelativisticParams-M"),
    pytest.param(lambda: exact_kinetic_terminal(1, 1.0, 1.0, 1.0, [1.0], _NAN, 4, SeedSpec(1)),
                 id="exact_kinetic_terminal-horizon"),
    pytest.param(lambda: exact_kinetic_terminal(1, 1.0, 1.0, 1.0, [1.0], -1.0, 4, SeedSpec(1)),
                 id="exact_kinetic_terminal-negative-horizon"),
])
def test_a_nan_is_not_positive(call):
    # each check reads `not x > 0`, which a NaN fails
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n_paths", [0, -1, _MAX_PATHS + 1])
def test_exact_kinetic_terminal_bounds_its_path_count(monkeypatch, n_paths):
    def opened(self):
        raise AssertionError("a generator opened")

    monkeypatch.setattr(SeedSpec, "generator", opened)
    with pytest.raises(ValueError, match="n_paths must be in"):
        exact_kinetic_terminal(1, 1.0, 1.0, 1.0, [1.0], 1.0, n_paths, SeedSpec(1))


def test_scheme_for_mapping():
    assert scheme_for(Interpretation.ITO) is SolverScheme.DIRECT_LEFT
    assert scheme_for(Interpretation.STRATONOVICH) is SolverScheme.DIRECT_MIDPOINT_HEUN
    assert scheme_for(Interpretation.HAENGGI_KLIMONTOVICH) is \
        SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR


def test_diverged_path_raises_only_when_recorded():
    def cube(x, t):  # overflows to inf on purpose
        with np.errstate(all="ignore"):
            return np.asarray(x, dtype=float) ** 3

    model = SdeModel(f=cube, g=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
                     dgdx=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                     interpretation=Interpretation.ITO, x0=0.9)

    cfg = McConfig(n_paths=20, dt=0.01, horizon=2.0, seed=SeedSpec(1))

    res = simulate_ensemble(model, SolverScheme.DIRECT_LEFT, cfg, record="terminal")
    assert np.isfinite(res.terminals).sum() == 3 and res.terminals.size == 20
    assert math.isnan(res.summary.terminal_mean)
    with pytest.raises(NumericError, match="path 0 diverged"):
        simulate_ensemble(model, SolverScheme.DIRECT_LEFT, cfg, record="path")
