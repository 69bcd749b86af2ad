"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to
stream them).  Monte Carlo criteria run on frozen master seeds, so the
whole suite is deterministic; the heavy items (9, and the ladder shared by
1 and 3) stay under the desk-scale budget.
"""
import math

import numpy as np
import pytest

from conftest import ks_statistic
from noisecalc import expr as xp
from noisecalc.fokker_planck import (
    FpeProblem,
    GridDensity,
    analyze_fixed_points,
    compare_modes,
    evolve_fpe,
    relative_entropy,
    stationary_density,
)
from noisecalc.integrals import (
    EvaluationRule,
    StepProcess,
    backward_regularized,
    hk_correction,
    multidim_correction,
    multidim_hk_sum,
    realized_variation,
    stochastic_sum,
    strong_convergence_order,
)
from noisecalc.paths import SamplePath, SeedSpec, TimeGrid, VectorPath, generate_brownian, refine_bridge
from noisecalc.physics import (
    LangevinParams,
    RelativisticParams,
    kinetic_models,
    langevin_velocity_pair,
    levy_composite_brownian,
    relativistic_models,
    rest_start_diagnostics,
    two_particle_models,
)
from noisecalc.sde import Interpretation, SdeModel, from_ito, to_ito
from noisecalc.solvers import (
    McConfig,
    Reflect,
    SolverScheme,
    hitting_time,
    kinetic_oracle_hitting,
    simulate_ensemble,
)

LEVELS = tuple(range(10, 17))  # dyadic ladder 2^10 .. 2^16
N_SEEDS = 100
LADDER_MASTER = 20240801


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}"
          f"{' | ' + detail if detail else ''}")
    assert ok, f"criterion {num}: {description} {detail}"


@pytest.fixture(scope="module")
def ladder():
    """Per-seed dyadic refinement ladder on [0, 1].

    For each seed and level: left/right sums for phi(x) = x^2, the matching
    drift correction, and the right sum for phi(x) = x (with the pinned
    endpoint value), reused by criteria 1 and 3.
    """
    sq_err = np.empty((N_SEEDS, len(LEVELS)))
    id_err = np.empty(N_SEEDS)
    one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    for s in range(N_SEEDS):
        seed = SeedSpec(LADDER_MASTER, s)
        w = generate_brownian(TimeGrid.uniform(0.0, 1.0, 2 ** LEVELS[0]), seed)
        for li, _ in enumerate(LEVELS):
            if li:
                w = refine_bridge(w, 2, seed.shifted(1000 + li))
            right = stochastic_sum(lambda x: x * x, w, w, EvaluationRule.RIGHT)
            left = stochastic_sum(lambda x: x * x, w, w, EvaluationRule.LEFT)
            corr = hk_correction(lambda x: 2.0 * x, w, one)
            sq_err[s, li] = abs(right - (left + corr))
        target = 0.5 * (w.final_value**2 + 1.0)
        id_err[s] = abs(stochastic_sum(lambda x: x, w, w, EvaluationRule.RIGHT)
                        - target)
    return sq_err, id_err


def test_criterion_01_pathwise_identity(ladder):
    sq_err, _ = ladder
    med = np.median(sq_err, axis=0)
    frac_down = float(np.mean(sq_err[:, -1] < sq_err[:, 0]))
    ok = (med[-1] < 1e-2) and np.all(np.diff(med) < 0) and frac_down >= 0.90
    check(1, "pathwise right = left + correction for phi=x^2", ok,
          f"median@2^16={med[-1]:.2e}, decreasing-seeds={frac_down:.2f}")


def test_criterion_02_exact_sum_algebra():
    rng = np.random.default_rng(2)
    worst = 0.0
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 500))
        t = np.cumsum(rng.uniform(1e-4, 2.0, n + 1))
        x = rng.normal(scale=rng.uniform(0.1, 30.0), size=n + 1)
        cases.append(SamplePath(TimeGrid(t - t[0]), x))
    cases.append(SamplePath(TimeGrid([0.0, 1e-9, 1.0]), np.array([1e6, -1e6, 1e6])))
    for p in cases:
        half_jump = 0.5 * (p.final_value**2 - p.initial_value**2)
        qv = realized_variation(p)
        scale = max(1.0, abs(half_jump) + qv)
        r = stochastic_sum(lambda v: v, p, p, EvaluationRule.RIGHT)
        l = stochastic_sum(lambda v: v, p, p, EvaluationRule.LEFT)
        worst = max(worst,
                    abs(r - (half_jump + 0.5 * qv)) / scale,
                    abs(l - (half_jump - 0.5 * qv)) / scale)
    check(2, "right/left sums satisfy the +/- half-QV identity", worst < 1e-12,
          f"worst relative residual {worst:.2e}")


def test_criterion_03_hk_integral_of_brownian(ladder):
    _, id_err = ladder
    med = float(np.median(id_err))
    check(3, "extrapolated right-rule integral of W dW near (W_1^2+1)/2",
          med < 0.05, f"median |error| = {med:.4f}")


def test_criterion_04_multidimensional_conversion():
    # pair (X, W), Psi = (0, g(x1)), smooth bounded g
    n = 2**16
    dt = 1.0 / n
    g = lambda v: 1.0 + 0.5 * np.tanh(v)
    gp = lambda v: 0.5 / np.cosh(v) ** 2

    def psi(xs, t):
        xs = np.atleast_2d(xs)
        out = np.zeros((xs.shape[0], 1, 2))
        out[:, 0, 1] = g(xs[:, 0])
        return out if xs.shape[0] > 1 else out[0]

    def dpsi(xs, t):
        xs = np.atleast_2d(xs)
        out = np.zeros((xs.shape[0], 2, 1, 2))
        out[:, 0, 0, 1] = gp(xs[:, 0])
        return out if xs.shape[0] > 1 else out[0]

    def bmat(xs, t):
        xs = np.atleast_2d(xs)
        gv = g(xs[:, 0])
        out = np.empty((xs.shape[0], 2, 2))
        out[:, 0, 0] = gv * gv
        out[:, 0, 1] = out[:, 1, 0] = gv
        out[:, 1, 1] = 1.0
        return out if xs.shape[0] > 1 else out[0]

    # Euler diffusion skeletons vectorized across the seed ensemble
    dw = np.empty((N_SEEDS, n))
    for s in range(N_SEEDS):
        dw[s] = SeedSpec(77, s).generator().standard_normal(n) * math.sqrt(dt)
    x = np.empty((N_SEEDS, n + 1))
    x[:, 0] = 0.5
    cur = np.full(N_SEEDS, 0.5)
    for k in range(n):
        cur = cur + (-cur) * dt + g(cur) * dw[:, k]
        x[:, k + 1] = cur
    w = np.concatenate([np.zeros((N_SEEDS, 1)), np.cumsum(dw, axis=1)], axis=1)

    grid = TimeGrid.uniform(0.0, 1.0, n)
    ratios = np.empty(N_SEEDS)
    for s in range(N_SEEDS):
        pair = VectorPath(grid, np.column_stack([x[s], w[s]]))
        r = multidim_hk_sum(psi, pair, EvaluationRule.RIGHT)[0]
        l = multidim_hk_sum(psi, pair, EvaluationRule.LEFT)[0]
        corr = multidim_correction(dpsi, bmat, pair)[0]
        ratios[s] = abs((r - l) - corr) / abs(corr)
    med = float(np.median(ratios))
    check(4, "d=1, m=2 pair test: right-left gap matches the correction",
          med < 0.02, f"median relative error {med:.4f}")


def test_criterion_05_conversion_rule():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10):
        a, b, c = rng.uniform(-1.5, 1.5, 3)
        tag = list(Interpretation)[int(rng.integers(0, 3))]
        m = SdeModel(
            f=lambda x, t, a=a, b=b: a * np.asarray(x, dtype=float) + b,
            g=lambda x, t, c=c: 1.3 + 0.6 * np.sin(c * np.asarray(x, dtype=float)),
            dgdx=lambda x, t, c=c: 0.6 * c * np.cos(c * np.asarray(x, dtype=float)),
            interpretation=tag, x0=0.0,
        )
        back = from_ito(to_ito(m), tag)
        xs = rng.uniform(-4.0, 4.0, 100)
        ts = rng.uniform(0.0, 2.0, 100)
        worst = max(worst, float(np.max(np.abs(back.f(xs, ts[0]) - m.f(xs, ts[0])))))
        for x_, t_ in zip(xs[:10], ts[:10]):
            worst = max(worst, abs(float(back.f(x_, t_)) - float(m.f(x_, t_))))
    round_trip_ok = worst <= 1e-10

    hk = SdeModel(
        f=lambda x, t: -np.asarray(x, dtype=float),
        g=lambda x, t: 1.0 + 0.25 * np.sin(np.asarray(x, dtype=float)),
        dgdx=lambda x, t: 0.25 * np.cos(np.asarray(x, dtype=float)),
        interpretation=Interpretation.HAENGGI_KLIMONTOVICH, x0=0.5,
    )
    n = 4000
    direct = simulate_ensemble(
        hk, SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR,
        McConfig(n_paths=n, dt=1e-3, horizon=1.0, seed=SeedSpec(1234)),
        record="terminal").summary
    converted = simulate_ensemble(
        hk, SolverScheme.EULER_MARUYAMA_ITO_FORM,
        McConfig(n_paths=n, dt=1e-3, horizon=1.0, seed=SeedSpec(1234, 100_000)),
        record="terminal").summary
    gap = abs(direct.terminal_mean - converted.terminal_mean)
    pooled = math.sqrt(direct.terminal_var / n + converted.terminal_var / n)
    ok = round_trip_ok and gap < 3 * pooled
    check(5, "conversion round trip and direct-HK vs converted-EM agreement",
          ok, f"round-trip worst {worst:.1e}, mean gap {gap:.4f} vs 3SE {3*pooled:.4f}")


OU_F = lambda x, t: -np.asarray(x, dtype=float)
OU_G = lambda x, t: np.full_like(np.asarray(x, dtype=float), math.sqrt(2.0))
OU_GP = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))


def test_criterion_06_stationary_law():
    # closed-form check at 512 cells, quadrature-normalized (erf)
    d = stationary_density(OU_F, OU_G, (-3.0, 3.0), 512)
    closed = np.exp(-d.centers**2 / 2)
    closed /= math.sqrt(2.0 * math.pi) * math.erf(3.0 / math.sqrt(2.0))
    per_cell = float(np.max(np.abs(d.values / closed - 1.0)))

    # reflected simulation: 100 paths, spacing 0.1 after a 5-unit burn-in,
    # pooled to exactly 2e5 samples
    model = SdeModel(f=OU_F, g=OU_G, dgdx=OU_GP,
                     interpretation=Interpretation.ITO, x0=0.0)
    cfg = McConfig(n_paths=100, dt=5e-3, horizon=205.0, seed=SeedSpec(606))
    ens = simulate_ensemble(model, SolverScheme.DIRECT_LEFT, cfg, Reflect(-3.0, 3.0),
                            record="path", record_stride=20)
    pool = np.concatenate([
        pr.path.values[pr.path.grid.points > 5.0] for pr in ens.results
    ])
    assert pool.size == 200_000
    ref = stationary_density(OU_F, OU_G, (-3.0, 3.0), 64)
    hist, _ = np.histogram(pool, bins=64, range=(-3.0, 3.0), density=True)
    tv = 0.5 * float(np.sum(np.abs(hist - ref.values)) * ref.dx)
    ok = tv < 0.08 and per_cell <= 1e-6
    check(6, "reflected ensemble matches the zero-flux stationary law", ok,
          f"TV={tv:.4f}, per-cell vs closed form {per_cell:.2e}")


def test_criterion_07_mode_robustness():
    interval, n_cells = (-1.5, 1.5), 256
    f = lambda x, t: np.asarray(x, dtype=float) - np.asarray(x, dtype=float) ** 3
    flat = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    vary = lambda x, t: 1.0 + 0.9 * np.tanh(3.0 * np.asarray(x, dtype=float))
    vary_p = lambda x, t: 2.7 / np.cosh(3.0 * np.asarray(x, dtype=float)) ** 2

    report = analyze_fixed_points(lambda x: x - x**3, lambda x: 1 - 3 * x**2,
                                  interval)
    ok = True
    detail = []
    for name, g in (("g=1", flat), ("g=1+0.9tanh(3x)", vary)):
        d = stationary_density(f, g, interval, n_cells)
        matched = compare_modes(report, d)
        stable_gaps = [gap for x0, _, gap in matched.matches
                       if any(abs(x0 - s) < 1e-6 for s in report.stable())]
        ok = ok and len(stable_gaps) == 2 and all(gap <= d.dx for gap in stable_gaps)
        detail.append(f"{name} max gap {max(stable_gaps):.4f}")

    hk_d = stationary_density(f, vary, interval, n_cells)
    ito_equiv = lambda x, t: f(x, t) - vary(x, t) * vary_p(x, t)
    ito_d = stationary_density(ito_equiv, vary, interval, n_cells)

    def mode_near_one(d):
        modes = [e.x for e in compare_modes(report, d).extrema
                 if e.kind.value == "max"]
        return min(modes, key=lambda x: abs(x - 1.0))

    displacement = abs(mode_near_one(ito_d) - mode_near_one(hk_d)) / hk_d.dx
    ok = ok and displacement > 2
    check(7, "double-well modes pin to +/-1 under the right-rule law; the "
             "left-rule counterpart displaces a mode", ok,
          ", ".join(detail) + f", displacement {displacement:.1f} cells")


def test_criterion_08_fpe_lyapunov():
    n = 256
    init = GridDensity.from_function(
        lambda x: np.exp(-0.5 * ((x - 1.0) / 0.5) ** 2), -3.0, 3.0, n)
    prob = FpeProblem(f=OU_F, g=OU_G, initial=init)
    res = evolve_fpe(prob, 1e-4, 10.0, snapshot_every=0.1)
    target = stationary_density(OU_F, OU_G, (-3.0, 3.0), n)
    h = np.array([relative_entropy(s, target) for s in res.snapshots])
    l1 = res.final.l1_distance(target)
    ok = (np.all(np.diff(h) <= 1e-10) and h[-1] < 1e-3
          and res.mass_drift <= 1e-8 and l1 < 0.02)
    check(8, "relative entropy decays along the forward evolution", ok,
          f"H(10)={h[-1]:.2e}, mass drift {res.mass_drift:.1e}, L1 {l1:.4f}")


def test_criterion_09_hitting_dichotomy():
    # delta = 1: EM vs exact oracle at the pinned scale
    single = kinetic_models(LangevinParams(v0=1.0))
    cfg = McConfig(n_paths=10_000, dt=1e-4, horizon=20.0, seed=SeedSpec(2718))
    em = hitting_time(single.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM,
                      0.0, 1e-4, cfg, Reflect(0.0))
    oracle = kinetic_oracle_hitting(
        1, 1, 1, 1, [1.0], 0.0, 1e-4,
        McConfig(n_paths=10_000, dt=1e-4, horizon=20.0, seed=SeedSpec(2719)))
    frac_gap = abs(em.fraction_hit - oracle.fraction_hit)
    ci_rel = em.ci95 / em.mean_hit_time

    # delta = 2: band detection stays rare and shrinks with the band
    # (0.01-second monitoring grid; finer grids only inflate the count of
    # spurious band entries since the two-particle energy density is
    # positive at the origin)
    double = two_particle_models(LangevinParams(v0=math.sqrt(0.5),
                                                u0=math.sqrt(0.5)))
    fracs = {}
    for band in (1e-5, 1e-6):
        cfg2 = McConfig(n_paths=2000, dt=1e-2, horizon=20.0, seed=SeedSpec(31415))
        fracs[band] = hitting_time(double.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM,
                                   0.0, band, cfg2, Reflect(0.0)).fraction_hit
    ok = (frac_gap <= 0.03 and ci_rel < 0.05
          and fracs[1e-6] < 0.01 and fracs[1e-6] <= fracs[1e-5])
    check(9, "single-particle energy reaches the origin, two-particle stays up",
          ok, f"frac gap {frac_gap:.3f}, CI/mean {ci_rel:.3f}, "
              f"d2 fracs {fracs[1e-5]:.4f}->{fracs[1e-6]:.4f}")


def test_criterion_10_rest_start_triptych():
    ok = True
    details = []
    single = kinetic_models(LangevinParams(v0=0.0))
    rel = relativistic_models(RelativisticParams(p0=0.0))
    for name, trio, seed in (("single", single, SeedSpec(160)),
                             ("relativistic", rel, SeedSpec(161))):
        ito, strat, hk = rest_start_diagnostics(
            trio, McConfig(n_paths=1000, dt=1e-3, horizon=1.0, seed=seed))
        ok = ok and ito.interior_fraction == 1.0 and strat.stuck_fraction == 1.0 \
            and hk.violation_fraction >= 0.99
        details.append(f"{name}: hk viol {hk.violation_fraction:.3f}")

    pair = two_particle_models(LangevinParams(v0=0.0, u0=0.0))
    ito, strat, hk = rest_start_diagnostics(
        pair, McConfig(n_paths=1000, dt=1e-3, horizon=1.0, seed=SeedSpec(162)))
    ok = ok and ito.interior_fraction == 1.0 \
        and strat.interior_fraction == 1.0 \
        and hk.stuck_fraction == 1.0
    details.append("two-particle: hk stuck "
                   f"{hk.stuck_fraction:.3f}")
    check(10, "boundary-start behavior separates the three interpretations",
          ok, ", ".join(details))


def test_criterion_11_relativistic_drift_signs():
    trio = relativistic_models(RelativisticParams())  # constant unit amplitudes
    drifts = [float(m.f(1.0, 0.0)) for m in trio.members()]
    ok = (abs(drifts[0] - 1.0) < 1e-12 and abs(drifts[1]) < 1e-12
          and abs(drifts[2] + 1.0) < 1e-12)
    check(11, "drift triple at the rest energy is (+D/M, 0, -D/M)", ok,
          f"drifts {drifts}")


def test_criterion_12_composite_brownian():
    grid = TimeGrid.uniform(0.0, 1.0, 2**15)
    params = LangevinParams(v0=1.0, u0=0.5)
    qv_ok = 0
    pooled = []
    for s in range(200):
        u, v, b, w = langevin_velocity_pair(params, grid, SeedSpec(555, s))
        wt = levy_composite_brownian(u, v, b, w)
        qv_ok += abs(realized_variation(wt) - 1.0) < 0.02
        pooled.append(wt.increments()[::655][:50])
    z = np.concatenate(pooled)[:10_000] / math.sqrt(1.0 / 2**15)
    kurt = float(np.mean((z - z.mean()) ** 4) / np.var(z) ** 2 - 3.0)
    ok = qv_ok >= 190 and abs(kurt) <= 0.15
    check(12, "composite noise has unit quadratic variation and Gaussian "
              "increments", ok, f"QV hits {qv_ok}/200, excess kurtosis {kurt:.3f}")


def test_criterion_13_backward_integral():
    w = generate_brownian(TimeGrid.uniform(0.0, 1.0, 8), SeedSpec(314))
    ups = StepProcess([0.0, 0.5, 1.0], [1.0, -0.5])
    target = ups.right_rule_sum(w)
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    devs = np.array([abs(backward_regularized(ups, w, e) - target) for e in eps])
    slope = float(np.polyfit(np.log(eps), np.log(devs), 1)[0])
    ok = abs(slope - 1.0) <= 0.2
    check(13, "regularized backward integral converges to the right sum at "
              "first order", ok, f"log-log slope {slope:.4f}")


def test_criterion_14_strong_order():
    model = SdeModel(
        f=lambda x, t: -np.asarray(x, dtype=float),
        g=lambda x, t: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
        dgdx=lambda x, t: np.asarray(x, dtype=float)
        / np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
        interpretation=Interpretation.ITO, x0=1.0,
    )
    cfg = McConfig(n_paths=256, dt=1 / 64, horizon=1.0, seed=SeedSpec(99))
    slope = strong_convergence_order(model, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg, 4)
    ok = 0.4 <= slope <= 0.6
    check(14, "Euler strong order one half on a Lipschitz model", ok,
          f"slope {slope:.3f}")


def test_criterion_15_expression_layer():
    from test_expr import CORPUS

    rng = np.random.default_rng(99)
    worst_src, worst = "", 0.0
    ok = True
    for src in CORPUS:
        e = xp.parse(src)
        d = xp.derivative(e)
        xs = rng.uniform(0.2, 2.2, 100)
        ts = rng.uniform(0.2, 2.2, 100)
        for x, t in zip(xs, ts):
            h = 1e-6 * max(1.0, abs(x))
            fd = (xp.evaluate(e, x + h, t) - xp.evaluate(e, x - h, t)) / (2 * h)
            sym = xp.evaluate(d, x, t)
            rel = abs(sym - fd) / max(abs(sym), abs(fd), 1e-3)
            if rel > worst:
                worst_src, worst = src, rel
            ok = ok and rel <= 1e-6

    ok = ok and xp.evaluate(xp.parse("x ^ 3 ^ 2"), 2.0) == 512.0
    ok = ok and xp.evaluate(xp.parse("x - x^3"), 2.0) == -6.0
    ok = ok and xp.evaluate(xp.parse("1 + 2*3"), 0.0) == 7.0
    try:
        xp.parse("2x")
        ok = False
    except xp.ExprSyntaxError as err:
        ok = ok and err.pos == 1
    check(15, "20-expression derivative corpus and parser pin-downs", ok,
          f"worst corpus residual {worst:.1e} ({worst_src!r})")
