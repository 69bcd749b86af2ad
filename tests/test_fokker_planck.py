import math
from dataclasses import fields, replace

import numpy as np
import pytest

from noisecalc.fokker_planck import (
    ExtremumKind,
    FpeProblem,
    GridDensity,
    Stability,
    analyze_fixed_points,
    compare_modes,
    evolve_fpe,
    nonequilibrium_potential,
    probability_flux,
    propagate_fpe,
    relative_entropy,
    stationary_density,
    stationary_log_density,
)
from noisecalc.fokker_planck import _sqra_generator

ONE = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
ZERO = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
SQRT2 = lambda x, t: np.full_like(np.asarray(x, dtype=float), math.sqrt(2.0))
NEG_X = lambda x, t: -np.asarray(x, dtype=float)
DOUBLE_WELL = lambda x, t: np.asarray(x, dtype=float) - np.asarray(x, dtype=float) ** 3
WELL_G = lambda x, t: 0.5 + 0.1 * np.asarray(x, dtype=float) ** 2
WELL_DG = lambda x, t: 0.2 * np.asarray(x, dtype=float)
TENTH = lambda x, t: np.full_like(np.asarray(x, dtype=float), 0.1)


def test_zero_drift_unit_diffusion_is_uniform():
    d = stationary_density(ZERO, ONE, (0.0, 1.0), 64)
    assert np.allclose(d.values, 1.0, atol=1e-14)


def test_ou_stationary_matches_closed_form():
    d = stationary_density(NEG_X, SQRT2, (-3.0, 3.0), 512)
    c = d.centers
    closed = np.exp(-c**2 / 2)
    closed /= math.sqrt(2 * math.pi) * math.erf(3 / math.sqrt(2.0))
    assert np.max(np.abs(d.values / closed - 1.0)) < 1e-6


def test_double_well_potential_structure():
    d = stationary_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 256)
    i_max = np.argsort(d.values)[-2:]
    peaks = np.sort(d.centers[i_max])
    assert abs(peaks[0] + 1.0) <= d.dx
    assert abs(peaks[1] - 1.0) <= d.dx
    mid = np.argmin(np.abs(d.centers))
    assert d.values[mid] < d.values[mid - 10]


def test_potential_is_cumulative_trapezoid_from_left_edge():
    xs = np.linspace(-1.0, 2.0, 7)[1:]
    v = nonequilibrium_potential(NEG_X, SQRT2, -1.0, xs)
    # integrand -x is linear: trapezoid is exact, V(x) = (1 - x^2)/2
    assert np.allclose(v, (1.0 - xs**2) / 2, atol=1e-14)


def test_vanishing_diffusion_rejected_with_location():
    g = lambda x, t: np.asarray(x, dtype=float)  # hits 0 at the left edge
    with pytest.raises(ValueError, match="bounded away"):
        stationary_density(ZERO, g, (0.0, 1.0), 32)


def test_uniform_state_is_fpe_fixed_point():
    init = GridDensity.uniform(0.0, 1.0, 64)
    prob = FpeProblem(f=ZERO, g=ONE, initial=init)
    res = evolve_fpe(prob, 0.5 * prob.stability_bound(), 0.5)
    assert np.allclose(res.final.values, 1.0, atol=1e-13)
    assert res.mass_drift < 1e-13


def test_ou_relaxation_and_mass_conservation():
    n = 256
    init = GridDensity.from_function(
        lambda x: np.exp(-0.5 * ((x - 1.0) / 0.5) ** 2), -3.0, 3.0, n)
    prob = FpeProblem(f=NEG_X, g=SQRT2, initial=init)
    dt = 1e-4
    res = evolve_fpe(prob, dt, 10_000 * dt)  # exactly 1e4 steps
    assert res.mass_drift <= 1e-8
    target = stationary_density(NEG_X, SQRT2, (-3.0, 3.0), n)
    # T = 1 is about one relaxation time; partial decay toward the target
    h0 = relative_entropy(init, target)
    h1 = relative_entropy(res.final, target)
    assert h1 < 0.2 * h0


def test_cfl_violation_rejected_with_admissible_dt():
    init = GridDensity.uniform(-1.0, 1.0, 64)
    prob = FpeProblem(f=ZERO, g=ONE, initial=init)
    bound = prob.stability_bound()
    with pytest.raises(ValueError, match="admissible"):
        evolve_fpe(prob, 2 * bound, 1.0)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_non_positive_dt_rejected(dt):
    # unchecked, dt = 0 divides by zero and a negative dt takes no step and succeeds
    init = GridDensity.uniform(-1.0, 1.0, 16)
    prob = FpeProblem(f=ZERO, g=ONE, initial=init)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_fpe(prob, dt, 1.0)


@pytest.mark.parametrize("horizon, dt", [(0.2, 0.050625), (0.9, 0.03), (0.27, 0.027),
                                         (0.5, 0.025)])
def test_march_ends_at_the_horizon_in_steps_no_longer_than_dt(horizon, dt):
    # 0.2 / 0.050625 is not a whole number; 0.9 / 0.03 rounds above 30 in
    # floats; 0.27 / 0.027 rounds down onto 10, but 0.27 / 10 > 0.027, so
    # the march takes 11 steps; 0.5 / 0.025 is 20 steps of exactly dt
    init = GridDensity.uniform(-3.0, 3.0, 16)
    prob = FpeProblem(f=NEG_X, g=ONE, initial=init)
    assert dt <= prob.stability_bound()
    res = evolve_fpe(prob, dt, horizon, snapshot_every=1e-9)  # a snapshot every step
    n_steps = len(res.times) - 1
    assert res.times[-1] == horizon
    # times[1] is the step; one step fewer would need a step longer than dt
    assert res.times[1] == horizon / n_steps <= dt < horizon / (n_steps - 1)


def _minmod(a, b):
    out = np.where((a > 0) & (b > 0), np.minimum(a, b), 0.0)
    return np.where((a < 0) & (b < 0), np.maximum(a, b), out)


def _reference_evolve(problem, dt, horizon, snapshot_every):
    """The step loop that the buffered evolver replaced, with its own
    temporaries and concatenations; returns (final, times, snapshots,
    mass_drift) as plain values.  It takes the evolver's steps: ceil(horizon
    / dt) of them, of length horizon / n, the last ending at horizon."""
    a, b = problem.interval
    n = problem.initial.n_cells
    dx = problem.initial.dx
    interfaces = a + np.arange(1, n) * dx
    g_c = np.asarray(problem.g(problem.initial.centers, 0.0), dtype=float)
    diff_c = 0.5 * g_c**2
    w_i = problem.velocity(interfaces)
    w_plus = w_i > 0

    p = problem.initial.values.copy()
    n_steps = math.ceil(horizon / dt)
    if horizon / n_steps > dt:
        n_steps += 1
    dt = horizon / n_steps
    snap_stride = max(1, round(snapshot_every / dt))
    times = [0.0]
    snaps = [GridDensity(a, b, p).values]
    mass0 = p.sum() * dx
    slopes = np.empty(n)
    for k in range(n_steps):
        slopes[1:-1] = _minmod(p[1:-1] - p[:-2], p[2:] - p[1:-1])
        slopes[0] = 0.0
        slopes[-1] = 0.0
        up = p[:-1] + 0.5 * slopes[:-1]
        down = p[1:] - 0.5 * slopes[1:]
        adv = w_i * np.where(w_plus, up, down)
        dif = (diff_c[1:] * p[1:] - diff_c[:-1] * p[:-1]) / dx
        j_interior = adv - dif
        p = p - (dt / dx) * (np.concatenate([j_interior, [0.0]])
                             - np.concatenate([[0.0], j_interior]))
        if (k + 1) % snap_stride == 0 and k + 1 < n_steps:
            times.append((k + 1) * dt)
            snaps.append(GridDensity(a, b, p).values)
    final = GridDensity(a, b, p).values
    times.append(horizon)
    snaps.append(final)
    return final, tuple(times), snaps, float(abs(p.sum() * dx - mass0))


def _zero_start(n):
    # a point mass whose empty cells alternate -0.0 and +0.0, so that cell
    # differences are signed zeros too: the limiter must keep each sign
    vals = np.zeros(n)
    vals[::2] = -0.0
    vals[n // 3] = 1.0
    return vals


@pytest.mark.parametrize("case", ["ou-gaussian", "hk-double-well", "point-mass",
                                  "signed-zero-point-mass", "uniform"])
def test_evolver_equals_reference_loop_bitwise(case):
    n = 96
    well_g = lambda x, t: 0.5 + 0.1 * np.asarray(x, dtype=float) ** 2
    if case == "ou-gaussian":
        f, g = NEG_X, SQRT2
        init = GridDensity.from_function(
            lambda x: np.exp(-0.5 * ((x - 1.0) / 0.5) ** 2), -3.0, 3.0, n)
    elif case == "hk-double-well":
        # the velocity changes sign, so both upwind branches run
        f, g = DOUBLE_WELL, well_g
        init = GridDensity.from_function(
            lambda x: np.exp(-2.0 * (x - 0.3) ** 2), -2.0, 2.0, n)
    elif case == "point-mass":
        f, g = DOUBLE_WELL, well_g
        init = GridDensity.point_mass(-2.0, 2.0, n, 0.7)
    elif case == "signed-zero-point-mass":
        f, g = DOUBLE_WELL, well_g
        init = GridDensity(-2.0, 2.0, _zero_start(n))
    else:
        f, g = DOUBLE_WELL, well_g
        init = GridDensity.uniform(-2.0, 2.0, n)
    prob = FpeProblem(f=f, g=g, initial=init)
    dt = 0.9 * prob.stability_bound()
    # few steps keep exact zeros alive in the point-mass cases
    horizon = 40 * dt if "point" in case else 0.5
    res = evolve_fpe(prob, dt, horizon, snapshot_every=7 * dt)
    final, times, snaps, drift = _reference_evolve(prob, dt, horizon, 7 * dt)
    assert np.array_equal(res.final.values, final)
    assert np.array_equal(np.signbit(res.final.values), np.signbit(final))
    assert res.times == times
    assert len(res.snapshots) == len(snaps)
    for got, ref in zip(res.snapshots, snaps):
        assert np.array_equal(got.values, ref)
        assert np.array_equal(np.signbit(got.values), np.signbit(ref))
    assert res.mass_drift == drift


@pytest.mark.parametrize("every", [-1.0, 0.0, math.nan])
def test_non_positive_snapshot_interval_rejected(every):
    init = GridDensity.uniform(-1.0, 1.0, 16)
    prob = FpeProblem(f=ZERO, g=ONE, initial=init)
    with pytest.raises(ValueError, match="snapshot_every"):
        evolve_fpe(prob, 0.5 * prob.stability_bound(), 0.1, snapshot_every=every)


def test_no_snapshots_keeps_start_and_end():
    init = GridDensity.uniform(-1.0, 1.0, 16)
    prob = FpeProblem(f=NEG_X, g=ONE, initial=init)
    dt = 0.5 * prob.stability_bound()
    res = evolve_fpe(prob, dt, 20 * dt, snapshot_every=None)
    assert res.times == (0.0, 20 * dt)
    assert res.snapshots[-1] is res.final


def test_grid_density_copies_the_callers_array():
    arr = np.full(8, 1.0)
    d = GridDensity(0.0, 1.0, arr)
    assert arr.flags.writeable
    assert not d.values.flags.writeable
    arr[0] = 5.0
    assert d.values[0] == 1.0


def test_flux_uniform_no_drift_is_zero():
    p = GridDensity.uniform(0.0, 1.0, 64)
    j = probability_flux(p, ZERO, ONE)
    assert np.max(np.abs(j)) < 1e-14


def test_flux_sign_with_positive_drift():
    p = GridDensity.uniform(0.0, 1.0, 64)
    j = probability_flux(p, lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
                         ONE)
    assert np.all(j[1:-1] > 0)


def test_flux_vanishes_on_stationary_density():
    # discretization of an identically-zero field; the operator is
    # second-order, reaching the 1e-4 scale from 512 cells up
    d256 = stationary_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 256)
    j256 = np.max(np.abs(probability_flux(d256, DOUBLE_WELL, ONE)))
    assert j256 < 5e-4
    d512 = stationary_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 512)
    j512 = np.max(np.abs(probability_flux(d512, DOUBLE_WELL, ONE)))
    assert j512 < 1e-4
    ratio = j256 / j512
    # halving the cells must at least halve the bound (measured: ~4, second
    # order; the lower edge guards the first-order floor)
    assert 1.7 <= ratio <= 4.6


def test_relative_entropy_basics():
    p = stationary_density(NEG_X, SQRT2, (-3.0, 3.0), 128)
    assert relative_entropy(p, p) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = GridDensity(-1.0, 1.0, rng.uniform(0.05, 1.0, 32))
        b = GridDensity(-1.0, 1.0, rng.uniform(0.05, 1.0, 32))
        assert relative_entropy(a, b) >= 0.0


def test_relative_entropy_infinite_when_support_mismatch():
    vals = np.zeros(16)
    vals[3] = 1.0
    p = GridDensity(0.0, 1.0, np.full(16, 1.0))
    q = GridDensity(0.0, 1.0, vals)
    assert relative_entropy(p, q) == math.inf


def test_stationary_log_density_is_the_log_of_the_density():
    d = stationary_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 256)
    log_d = stationary_log_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 256)
    np.testing.assert_allclose(np.exp(log_d), d.values, rtol=1e-12)
    p = GridDensity.from_function(lambda x: np.exp(-(x - 0.5) ** 2), -2.0, 2.0, 256)
    assert relative_entropy(p, log_d) == pytest.approx(relative_entropy(p, d), rel=1e-12)
    with pytest.raises(ValueError):
        relative_entropy(p, log_d[:-1])


def test_stationary_log_density_finite_where_the_density_underflows():
    d = stationary_density(NEG_X, TENTH, (-3.0, 3.0), 256)
    log_d = stationary_log_density(NEG_X, TENTH, (-3.0, 3.0), 256)
    assert np.count_nonzero(d.values == 0.0) == 24
    assert np.isfinite(log_d).all()
    assert np.sum(np.exp(log_d)) * 6.0 / 256 == pytest.approx(1.0, rel=1e-12)
    p = GridDensity.uniform(-3.0, 3.0, 256)
    assert relative_entropy(p, d) == math.inf
    assert math.isfinite(relative_entropy(p, log_d))


def test_entropy_monotone_along_randomized_problems():
    rng = np.random.default_rng(11)
    for trial in range(5):
        a_coef, b_coef = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        c_coef = rng.uniform(0.2, 0.8)
        f = lambda x, t, a=a_coef, b=b_coef: b - a * np.asarray(x, dtype=float)
        g = lambda x, t, c=c_coef: 1.0 + c * np.tanh(np.asarray(x, dtype=float))
        init = GridDensity.from_function(
            lambda x: np.exp(-2.0 * (x - 1.0) ** 2), -2.0, 2.0, 128)
        prob = FpeProblem(f=f, g=g, initial=init)
        res = evolve_fpe(prob, 0.9 * prob.stability_bound(), 2.0, snapshot_every=0.1)
        target = stationary_density(f, g, (-2.0, 2.0), 128)
        h = np.array([relative_entropy(s, target) for s in res.snapshots])
        assert np.all(np.diff(h) <= 1e-10), f"trial {trial}"


def test_fixed_points_linear_drift():
    report = analyze_fixed_points(lambda x: -x, lambda x: -1.0, (-2.0, 2.0))
    assert len(report.fixed_points) == 1
    fp = report.fixed_points[0]
    assert abs(fp.x) < 1e-9
    assert fp.stability is Stability.STABLE
    d = stationary_density(NEG_X, ONE, (-2.0, 2.0), 128)
    matched = compare_modes(report, d)
    assert len(matched.matches) == 1
    assert matched.matches[0][2] <= d.dx


def test_fixed_points_double_well():
    report = analyze_fixed_points(lambda x: x - x**3, lambda x: 1 - 3 * x**2,
                                  (-2.0, 2.0))
    xs = sorted(fp.x for fp in report.fixed_points)
    assert np.allclose(xs, [-1.0, 0.0, 1.0], atol=1e-9)
    stabs = {round(fp.x): fp.stability for fp in report.fixed_points}
    assert stabs[-1] is Stability.STABLE
    assert stabs[0] is Stability.UNSTABLE
    assert stabs[1] is Stability.STABLE

    d = stationary_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 256)
    matched = compare_modes(report, d)
    kinds = {e.kind for e in matched.extrema}
    assert kinds == {ExtremumKind.MAX, ExtremumKind.MIN}
    assert len(matched.matches) == 3
    for _, _, gap in matched.matches:
        assert gap <= d.dx


def test_degenerate_fixed_point_flagged():
    report = analyze_fixed_points(lambda x: x**3, lambda x: 3 * x**2, (-1.0, 1.0))
    assert any(fp.stability is Stability.DEGENERATE for fp in report.fixed_points)


def test_mode_locations_invariant_under_diffusion_scaling():
    # scaling g by a constant rescales the potential but moves no extremum
    base = stationary_density(DOUBLE_WELL, ONE, (-2.0, 2.0), 256)
    for lam in (0.5, 2.0):
        g = lambda x, t, s=lam: np.full_like(np.asarray(x, dtype=float), s)
        d = stationary_density(DOUBLE_WELL, g, (-2.0, 2.0), 256)
        report = analyze_fixed_points(lambda x: x - x**3, lambda x: 1 - 3 * x**2,
                                      (-2.0, 2.0))
        m_base = compare_modes(report, base)
        m_lam = compare_modes(report, d)
        for (x1, mode1, _), (x2, mode2, _) in zip(m_base.matches, m_lam.matches):
            assert abs(mode1 - mode2) <= base.dx


def test_grid_density_point_mass_and_clipping():
    d = GridDensity.point_mass(0.0, 1.0, 10, 0.35)
    assert d.mass == pytest.approx(1.0)
    assert np.count_nonzero(d.values) == 1
    clipped = GridDensity(0.0, 1.0, np.array([1.0, -1e-13, 1.0, 1.0]))
    assert clipped.clipped
    assert clipped.values.min() == 0.0
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, np.array([1.0, -1e-3, 1.0, 1.0]))


def test_grid_density_requires_matching_grids():
    a = GridDensity.uniform(0.0, 1.0, 8)
    b = GridDensity.uniform(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        relative_entropy(a, b)


# --- the SQRA propagator -----------------------------------------------------


def _problem(case, n=256, start=0.3):
    """OU (``f = -x``, ``g = 1``), the HK double well (``f = x - x^3``,
    ``g = 0.5 + 0.1 x^2``), or the stiff OU (``g = 0.1``: potential range
    893 on [-3, 3]), started from a Gaussian of width 0.5."""
    f, g, interval = {
        "ou": (NEG_X, ONE, (-3.0, 3.0)),
        "hk-double-well": (DOUBLE_WELL, WELL_G, (-2.0, 2.0)),
        "stiff-ou": (NEG_X, TENTH, (-3.0, 3.0)),
    }[case]
    init = GridDensity.from_function(
        lambda x: np.exp(-0.5 * ((x - start) / 0.5) ** 2), *interval, n)
    return FpeProblem(f=f, g=g, initial=init)


@pytest.mark.parametrize("case", ["ou", "hk-double-well"])
def test_propagator_agrees_with_explicit_march(case):
    prob = _problem(case)
    res = propagate_fpe(prob, 5.0, 0.5)
    at = dict(zip(res.times, res.snapshots))
    dt = 0.9 * prob.stability_bound()
    for t in (0.5, 1.0, 5.0):
        march = evolve_fpe(prob, dt, t, snapshot_every=None).final
        assert at[t].l1_distance(march) < 1e-3, t


@pytest.mark.parametrize("case", ["ou", "hk-double-well"])
def test_generator_null_vector_is_the_stationary_density(case):
    prob = _problem(case, n=128)
    gen = _sqra_generator(prob)
    target = stationary_density(prob.f, prob.g, prob.interval, 128)
    rates = np.abs(gen).max()
    assert np.max(np.abs(gen.sum(axis=0))) <= 1e-12 * rates
    assert np.max(np.abs(gen @ target.values)) <= 1e-12 * rates * target.values.max()


@pytest.mark.parametrize("case", ["ou", "hk-double-well"])
def test_propagator_reaches_the_stationary_density(case):
    prob = _problem(case, n=128)
    lam = np.sort(-np.linalg.eigvals(_sqra_generator(prob)).real)
    horizon = 40.0 / lam[1]  # 40 relaxation times of the slowest mode
    res = propagate_fpe(prob, horizon, horizon / 4)
    target = stationary_density(prob.f, prob.g, prob.interval, 128)
    assert np.max(np.abs(res.final.values / target.values - 1.0)) < 1e-9


def test_propagator_stays_nonnegative_on_a_stiff_potential():
    prob = _problem("stiff-ou", start=1.0)
    v = nonequilibrium_potential(prob.f, prob.g, -3.0, prob.initial.centers)
    assert np.ptp(v) > 700  # exp(V) spans more than the double range
    res = propagate_fpe(prob, 5.0, 0.1)
    for snap in res.snapshots:
        assert np.all(np.isfinite(snap.values))
        assert snap.values.min() >= 0.0
        assert not snap.clipped
    assert res.mass_drift < 1e-9


@pytest.mark.parametrize("case", ["ou", "hk-double-well"])
def test_propagator_entropy_trace_is_monotone(case):
    prob = _problem(case, start=1.0)
    res = propagate_fpe(prob, 3.0, 0.05)
    target = stationary_density(prob.f, prob.g, prob.interval, 256)
    h = np.array([relative_entropy(s, target) for s in res.snapshots])
    assert np.all(np.diff(h) <= 0.0)
    assert h[-1] < h[0]


@pytest.mark.parametrize("horizon, every, m", [(0.2, 0.050625, 4), (0.9, 0.03, 31),
                                               (0.27, 0.027, 11), (0.5, 0.025, 20),
                                               (1.0, 5.0, 1)])
def test_propagator_snapshot_grid_ends_at_the_horizon(horizon, every, m):
    # the snapshot count follows evolve_fpe's step rule: 0.9 / 0.03 rounds
    # above 30 in floats; 0.27 / 0.027 rounds down onto 10, one too few
    prob = _problem("ou", n=16)
    res = propagate_fpe(prob, horizon, every)
    assert len(res.times) == m + 1 == len(res.snapshots)
    assert res.times[-1] == horizon
    assert res.snapshots[-1] is res.final
    assert res.times[1] == horizon / m <= every


@pytest.mark.parametrize("horizon, every, what", [
    (1.0, 0.99e-5, "101011"), (1.0, 1e-320, "inf"), (1.0, 0.0, "positive"),
    (1.0, math.nan, "positive"), (0.0, 0.1, "horizon"), (math.inf, 0.1, "horizon"),
])
def test_propagator_rejects_bad_snapshot_grids(horizon, every, what):
    prob = _problem("ou", n=16)
    with pytest.raises(ValueError, match=what):
        propagate_fpe(prob, horizon, every)


def test_propagator_rejects_overflowing_rates():
    # g = 0.01 on 16 cells: V changes by ~2e4 between the edge cells
    init = GridDensity.uniform(-3.0, 3.0, 16)
    g = lambda x, t: np.full_like(np.asarray(x, dtype=float), 0.01)
    prob = FpeProblem(f=NEG_X, g=g, initial=init)
    with pytest.raises(ValueError, match="overflow"):
        propagate_fpe(prob, 1.0, 0.1)


def test_propagator_rejects_a_cell_count_above_the_cap_before_it_allocates(monkeypatch):
    import noisecalc.fokker_planck as fp

    def unreachable(problem):
        raise AssertionError("the dense generator was built")
    monkeypatch.setattr(fp, "_sqra_generator", unreachable)
    with pytest.raises(ValueError, match="4097 cells"):
        propagate_fpe(_problem("ou", n=4097), 1.0, 0.1)


class _GeneratorReached(Exception):
    pass


@pytest.mark.parametrize("n_cells, m, raised", [
    (673, 24928, ValueError),  # 673 x 24929 = 4096^2 + 1 snapshot values
    (256, 65535, _GeneratorReached),  # 256 x 65536 = 4096^2: on to the generator
])
def test_propagator_bounds_the_snapshot_values_before_it_allocates(monkeypatch, n_cells, m,
                                                                    raised):
    import noisecalc.fokker_planck as fp

    def unreachable(problem):
        raise _GeneratorReached
    monkeypatch.setattr(fp, "_sqra_generator", unreachable)
    with pytest.raises(raised) as err:
        propagate_fpe(_problem("ou", n=n_cells), m * 0.125, 0.125)
    if raised is ValueError:
        assert f"{n_cells} cells x {m + 1} snapshots" in str(err.value)


def test_every_problem_field_changes_the_snapshots():
    """Each field of FpeProblem is read by the propagator: changing any one
    of them changes a propagated snapshot (the start aside)."""
    base = _problem("hk-double-well", n=32)
    variants = {"f": replace(base, f=NEG_X), "g": replace(base, g=ONE),
                "initial": _problem("hk-double-well", n=32, start=-0.3)}
    assert set(variants) == {f.name for f in fields(FpeProblem)}

    def snapshots(problem):
        return [s.values for s in propagate_fpe(problem, 0.5, 0.25).snapshots[1:]]
    same = [name for name, problem in variants.items()
            if all(map(np.array_equal, snapshots(problem), snapshots(base)))]
    assert same == []


def test_propagator_allows_the_largest_snapshot_count():
    res = propagate_fpe(_problem("ou", n=4), 1.0, 1e-5)
    assert len(res.times) == 100_001


def test_advective_limit_keeps_the_stiff_march_nonnegative():
    prob = _problem("stiff-ou", start=1.0)
    dx = prob.initial.dx
    assert prob.stability_bound() == pytest.approx(0.5 * dx / 3.0, rel=1e-9)
    assert prob.stability_bound() < 0.4 * dx**2 / 0.01  # advection binds
    res = evolve_fpe(prob, 0.9 * prob.stability_bound(), 2.0, snapshot_every=0.1)
    for snap in res.snapshots:
        assert snap.values.min() >= 0.0
        assert not snap.clipped
    assert res.mass_drift < 1e-12


def test_velocity_and_flux_without_dgdx_match_the_analytic_derivative():
    init = GridDensity.from_function(lambda x: np.exp(-(x - 0.3) ** 2), -2.0, 2.0, 64)
    fd = FpeProblem(f=DOUBLE_WELL, g=WELL_G, initial=init)
    exact = lambda x: DOUBLE_WELL(x, 0.0) + WELL_G(x, 0.0) * WELL_DG(x, 0.0)
    inner = np.linspace(-2.0, 2.0, 401)[1:-1]
    assert np.max(np.abs(fd.velocity(inner) - exact(inner))) < 1e-8
    # the interval's edges take one-sided stencils instead of leaving it
    edges = np.array([-2.0, 2.0])
    assert np.max(np.abs(fd.velocity(edges) - exact(edges))) < 1e-6
    xs, dx = np.linspace(-2.0, 2.0, 512), init.dx
    bound = min(0.4 * dx**2 / np.max(WELL_G(xs, 0.0) ** 2), 0.5 * dx / np.max(np.abs(exact(xs))))
    assert fd.stability_bound() == pytest.approx(bound, rel=1e-6)
    # the flux with the analytic velocity, and the documented stencil for d(g^2 p)/dx
    q = WELL_G(init.centers, 0.0) ** 2 * init.values
    dq = np.empty_like(q)
    dq[1:-1] = (q[2:] - q[:-2]) / (2 * dx)
    dq[0] = (-11 * q[0] + 18 * q[1] - 9 * q[2] + 2 * q[3]) / (6 * dx)
    dq[-1] = (11 * q[-1] - 18 * q[-2] + 9 * q[-3] - 2 * q[-4]) / (6 * dx)
    j_exact = exact(init.centers) * init.values - 0.5 * dq
    j_fd = probability_flux(init, DOUBLE_WELL, WELL_G)
    assert np.max(np.abs(j_fd - j_exact)) < 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_density_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        GridDensity(0.0, 1.0, np.array([1.0, bad, 1.0, 1.0]))


def test_grid_density_clipped_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        GridDensity(0.0, 1.0, np.ones(4), clipped=True)
    assert not GridDensity(0.0, 1.0, np.ones(4)).clipped
